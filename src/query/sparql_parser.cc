#include "query/sparql_parser.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/vocab.h"

namespace rdfref {
namespace query {

namespace {

struct Token {
  enum Kind {
    kKeyword,  // SELECT / WHERE / PREFIX (uppercased)
    kVar,      // ?name (text = name)
    kUri,      // <iri> (text = iri)
    kPName,    // pfx:local
    kLiteral,  // "..." (text = contents)
    kA,        // the 'a' keyword
    kLBrace,
    kRBrace,
    kDot,
  };
  Kind kind;
  std::string text;
};

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         c == '-' || c == '.' || c == '/' || c == '#';
}

Status Lex(std::string_view text, std::vector<Token>* out) {
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (c == '{') {
      out->push_back({Token::kLBrace, "{"});
      ++i;
    } else if (c == '}') {
      out->push_back({Token::kRBrace, "}"});
      ++i;
    } else if (c == '.') {
      out->push_back({Token::kDot, "."});
      ++i;
    } else if (c == '?' || c == '$') {
      size_t j = i + 1;
      while (j < n && (std::isalnum(static_cast<unsigned char>(text[j])) ||
                       text[j] == '_')) {
        ++j;
      }
      if (j == i + 1) return Status::ParseError("empty variable name");
      out->push_back({Token::kVar, std::string(text.substr(i + 1, j - i - 1))});
      i = j;
    } else if (c == '<') {
      size_t close = text.find('>', i + 1);
      if (close == std::string_view::npos) {
        return Status::ParseError("unterminated IRI");
      }
      out->push_back({Token::kUri, std::string(text.substr(i + 1, close - i - 1))});
      i = close + 1;
    } else if (c == '"') {
      std::string value;
      size_t j = i + 1;
      while (j < n && text[j] != '"') {
        if (text[j] == '\\' && j + 1 < n) {
          value.push_back(text[j + 1]);
          j += 2;
        } else {
          value.push_back(text[j]);
          ++j;
        }
      }
      if (j >= n) return Status::ParseError("unterminated literal");
      out->push_back({Token::kLiteral, std::move(value)});
      i = j + 1;
    } else if (IsWordChar(c)) {
      size_t j = i;
      while (j < n && IsWordChar(text[j])) ++j;
      std::string word(text.substr(i, j - i));
      // Words ending in '.' would have been split by the dot handler only if
      // '.' were not a word char; strip a trailing dot so "ns:x." works.
      bool trailing_dot = false;
      while (!word.empty() && word.back() == '.') {
        word.pop_back();
        --j;
        trailing_dot = true;
      }
      std::string upper = word;
      std::transform(upper.begin(), upper.end(), upper.begin(), [](char ch) {
        return static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
      });
      if (upper == "SELECT" || upper == "WHERE" || upper == "PREFIX" ||
          upper == "UNION") {
        out->push_back({Token::kKeyword, upper});
      } else if (word == "a") {
        out->push_back({Token::kA, word});
      } else if (word.find(':') != std::string::npos) {
        out->push_back({Token::kPName, word});
      } else {
        return Status::ParseError("unexpected token '" + word + "'");
      }
      if (trailing_dot) out->push_back({Token::kDot, "."});
      i = j;
      while (i < n && text[i] == '.') {
        // already emitted one dot above; skip the consumed dots
        ++i;
        break;
      }
    } else {
      return Status::ParseError(std::string("unexpected character '") + c +
                                "'");
    }
  }
  return Status::OK();
}

}  // namespace

namespace {

// Parses one { tp... } group into a Cq with its own variable table; the
// head is built from `head_names` (each must occur in the group).
Result<Cq> ParseGroup(const std::vector<Token>& tokens, size_t* pos,
                      const std::vector<std::string>& head_names,
                      const std::unordered_map<std::string, std::string>&
                          prefixes,
                      rdf::Dictionary* dict) {
  auto at_end = [&]() { return *pos >= tokens.size(); };
  if (at_end() || tokens[*pos].kind != Token::kLBrace) {
    return Status::ParseError("expected '{'");
  }
  ++*pos;

  Cq cq;
  std::unordered_map<std::string, VarId> vars;
  auto var_id = [&](const std::string& name) {
    auto it = vars.find(name);
    if (it != vars.end()) return it->second;
    VarId id = cq.AddVar(name);
    vars.emplace(name, id);
    return id;
  };
  auto resolve = [&](const Token& tok) -> Result<QTerm> {
    switch (tok.kind) {
      case Token::kVar:
        return QTerm::Var(var_id(tok.text));
      case Token::kUri:
        return QTerm::Const(dict->InternUri(tok.text));
      case Token::kLiteral:
        return QTerm::Const(dict->InternLiteral(tok.text));
      case Token::kA:
        return QTerm::Const(rdf::vocab::kTypeId);
      case Token::kPName: {
        size_t colon = tok.text.find(':');
        std::string pfx = tok.text.substr(0, colon);
        auto it = prefixes.find(pfx);
        if (it == prefixes.end()) {
          return Status::ParseError("undefined prefix '" + pfx + ":'");
        }
        return QTerm::Const(
            dict->InternUri(it->second + tok.text.substr(colon + 1)));
      }
      default:
        return Status::ParseError("expected a term in triple pattern");
    }
  };

  while (!at_end() && tokens[*pos].kind != Token::kRBrace) {
    if (tokens[*pos].kind == Token::kDot) {  // stray separators are fine
      ++*pos;
      continue;
    }
    if (*pos + 2 >= tokens.size()) {
      return Status::ParseError("incomplete triple pattern");
    }
    RDFREF_ASSIGN_OR_RETURN(QTerm st, resolve(tokens[*pos]));
    RDFREF_ASSIGN_OR_RETURN(QTerm pt, resolve(tokens[*pos + 1]));
    RDFREF_ASSIGN_OR_RETURN(QTerm ot, resolve(tokens[*pos + 2]));
    cq.AddAtom(Atom(st, pt, ot));
    *pos += 3;
  }
  if (at_end()) return Status::ParseError("expected '}'");
  ++*pos;  // consume '}'

  for (const std::string& name : head_names) {
    auto it = vars.find(name);
    if (it == vars.end()) {
      return Status::ParseError("head variable ?" + name +
                                " does not occur in every UNION branch");
    }
    cq.AddHead(QTerm::Var(it->second));
  }
  if (cq.body().empty()) return Status::ParseError("empty BGP");
  return cq;
}

}  // namespace

Result<Ucq> ParseSparqlUnion(std::string_view text, rdf::Dictionary* dict) {
  std::vector<Token> tokens;
  RDFREF_RETURN_NOT_OK(Lex(text, &tokens));

  std::unordered_map<std::string, std::string> prefixes = {
      {"rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#"},
      {"rdfs", "http://www.w3.org/2000/01/rdf-schema#"},
  };

  size_t pos = 0;
  auto at_end = [&]() { return pos >= tokens.size(); };

  while (!at_end() && tokens[pos].kind == Token::kKeyword &&
         tokens[pos].text == "PREFIX") {
    ++pos;
    if (pos + 1 >= tokens.size() || tokens[pos].kind != Token::kPName ||
        tokens[pos + 1].kind != Token::kUri) {
      return Status::ParseError("malformed PREFIX declaration");
    }
    std::string pname = tokens[pos].text;
    if (pname.empty() || pname.back() != ':') {
      return Status::ParseError("prefix must end with ':'");
    }
    prefixes[pname.substr(0, pname.size() - 1)] = tokens[pos + 1].text;
    pos += 2;
  }

  if (at_end() || tokens[pos].kind != Token::kKeyword ||
      tokens[pos].text != "SELECT") {
    return Status::ParseError("expected SELECT");
  }
  ++pos;

  std::vector<std::string> head_names;
  while (!at_end() && tokens[pos].kind == Token::kVar) {
    head_names.push_back(tokens[pos].text);
    ++pos;
  }
  if (head_names.empty()) {
    return Status::ParseError("SELECT needs at least one variable");
  }

  if (at_end() || tokens[pos].kind != Token::kKeyword ||
      tokens[pos].text != "WHERE") {
    return Status::ParseError("expected WHERE");
  }
  ++pos;

  Ucq ucq;
  while (true) {
    RDFREF_ASSIGN_OR_RETURN(Cq branch,
                            ParseGroup(tokens, &pos, head_names, prefixes,
                                       dict));
    ucq.Add(std::move(branch));
    if (!at_end() && tokens[pos].kind == Token::kKeyword &&
        tokens[pos].text == "UNION") {
      ++pos;
      continue;
    }
    break;
  }
  if (!at_end()) {
    return Status::ParseError("unexpected trailing input after the BGP");
  }
  return ucq;
}

Result<Cq> ParseSparql(std::string_view text, rdf::Dictionary* dict) {
  RDFREF_ASSIGN_OR_RETURN(Ucq ucq, ParseSparqlUnion(text, dict));
  if (ucq.size() != 1) {
    return Status::ParseError(
        "query has UNION branches; use ParseSparqlUnion");
  }
  return ucq.members()[0];
}

namespace {

bool IsSparqlVarName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

Result<std::string> RenderConst(rdf::TermId id, const rdf::Dictionary& dict) {
  if (id >= dict.size()) {
    return Status::InvalidArgument("constant not in dictionary");
  }
  const rdf::Term& term = dict.Lookup(id);
  switch (term.kind) {
    case rdf::TermKind::kUri:
      if (term.lexical.find('>') != std::string::npos) {
        return Status::InvalidArgument("IRI contains '>'");
      }
      return "<" + term.lexical + ">";
    case rdf::TermKind::kLiteral: {
      std::string out = "\"";
      for (char c : term.lexical) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
      }
      out.push_back('"');
      return out;
    }
    case rdf::TermKind::kBlank:
      return Status::InvalidArgument(
          "blank-node constants are not expressible in the dialect");
  }
  return Status::InvalidArgument("unknown term kind");
}

/// Renders one BGP group body; `name_of(v)` supplies the variable name.
template <typename NameFn>
Result<std::string> RenderGroup(const Cq& q, const rdf::Dictionary& dict,
                                const NameFn& name_of) {
  std::string out = "{ ";
  auto render = [&](const QTerm& t) -> Result<std::string> {
    if (t.is_var) {
      std::string var = "?";
      var += name_of(t.var());
      return var;
    }
    return RenderConst(t.term(), dict);
  };
  for (size_t i = 0; i < q.body().size(); ++i) {
    const Atom& a = q.body()[i];
    RDFREF_ASSIGN_OR_RETURN(std::string s, render(a.s));
    RDFREF_ASSIGN_OR_RETURN(std::string p, render(a.p));
    RDFREF_ASSIGN_OR_RETURN(std::string o, render(a.o));
    out += s + " " + p + " " + o + (i + 1 < q.body().size() ? " . " : " ");
  }
  out += "}";
  return out;
}

Status CheckSerializable(const Cq& q) {
  if (q.body().empty()) return Status::InvalidArgument("empty body");
  if (q.head().empty()) return Status::InvalidArgument("empty head");
  for (const Atom& a : q.body()) {
    if (a.has_range()) {
      // Id intervals are meaningless outside one dictionary's encoded id
      // space; serialized queries must survive a dictionary rebuild.
      return Status::InvalidArgument(
          "interval atoms are an internal reformulation form and are not "
          "expressible in SPARQL");
    }
  }
  for (const QTerm& h : q.head()) {
    if (!h.is_var) {
      return Status::InvalidArgument(
          "constant head slots are not expressible in SPARQL");
    }
  }
  if (!q.IsSafe()) {
    return Status::InvalidArgument("unsafe query (head var not in body)");
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ToSparql(const Cq& q, const rdf::Dictionary& dict) {
  RDFREF_RETURN_NOT_OK(CheckSerializable(q));
  // Original names are kept, so they must be valid identifiers and no two
  // distinct variables may share one (they would merge on re-parse).
  std::set<VarId> used = q.BodyVars();
  std::set<std::string> names;
  for (VarId v : used) {
    if (!IsSparqlVarName(q.var_name(v))) {
      return Status::InvalidArgument("variable name '" + q.var_name(v) +
                                     "' is not a SPARQL identifier");
    }
    if (!names.insert(q.var_name(v)).second) {
      return Status::InvalidArgument("duplicate variable name '" +
                                     q.var_name(v) + "'");
    }
  }
  std::string out = "SELECT";
  for (const QTerm& h : q.head()) out += " ?" + q.var_name(h.var());
  out += " WHERE ";
  auto name_of = [&](VarId v) { return q.var_name(v); };
  RDFREF_ASSIGN_OR_RETURN(std::string group, RenderGroup(q, dict, name_of));
  return out + group;
}

Result<std::string> ToSparql(const Ucq& u, const rdf::Dictionary& dict) {
  if (u.size() == 0) return Status::InvalidArgument("empty union");
  // Branches have independent variable tables but share one SELECT list, so
  // every branch's variables are renamed: head slot i -> hi, the rest -> a
  // fresh x<n>. A head that repeats a variable cannot be renamed this way.
  std::string out = "SELECT";
  for (size_t i = 0; i < u.arity(); ++i) {
    out += " ?h" + std::to_string(i);
  }
  out += " WHERE ";
  for (size_t m = 0; m < u.size(); ++m) {
    const Cq& q = u.members()[m];
    RDFREF_RETURN_NOT_OK(CheckSerializable(q));
    std::unordered_map<VarId, std::string> renamed;
    for (size_t i = 0; i < q.head().size(); ++i) {
      std::string name = "h";
      name += std::to_string(i);
      if (!renamed.emplace(q.head()[i].var(), std::move(name)).second) {
        return Status::InvalidArgument(
            "a UNION member repeats a head variable; not expressible");
      }
    }
    int fresh = 0;
    for (VarId v : q.BodyVars()) {
      if (!renamed.count(v)) {
        std::string name = "x";
        name += std::to_string(fresh++);
        renamed.emplace(v, std::move(name));
      }
    }
    auto name_of = [&](VarId v) { return renamed.at(v); };
    RDFREF_ASSIGN_OR_RETURN(std::string group,
                            RenderGroup(q, dict, name_of));
    if (m > 0) out += " UNION ";
    out += group;
  }
  return out;
}

}  // namespace query
}  // namespace rdfref
