#include "ops.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "bench_common.h"
#include "common/hash.h"
#include "datagen/lubm.h"
#include "datagen/sp2b.h"

namespace perfbench {

namespace rdf = rdfref::rdf;
namespace datagen = rdfref::datagen;

namespace {

constexpr const char* kSpPrefix = "PREFIX sp: <http://rdfref.org/sp2b#>\n";

// The pinned sp2b dataset: scale 2.0 of the default 1,000-document config.
constexpr double kSp2bScale = 2.0;

uint64_t PairKey(uint32_t src, uint32_t dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

std::vector<QueryTemplate> LubmTemplates() {
  std::vector<QueryTemplate> templates;
  for (const auto& [name, body] : rdfref::bench::LubmQuerySuite()) {
    templates.push_back({name, rdfref::bench::kUbPrefix + body, "", 0});
  }
  // Example 1 of the paper, as text: the same BGP bench::Example1Query
  // parses (the tests check that both give one canonical query).
  const std::string univ = datagen::Lubm::UniversityUri(1);
  templates.push_back({"Example1",
                       std::string(rdfref::bench::kUbPrefix) +
                           "SELECT ?x ?u ?y ?v ?z WHERE {\n"
                           "  ?x rdf:type ?u .\n"
                           "  ?y rdf:type ?v .\n"
                           "  ?x ub:mastersDegreeFrom <" + univ + "> .\n"
                           "  ?y ub:doctoralDegreeFrom <" + univ + "> .\n"
                           "  ?x ub:memberOf ?z .\n"
                           "  ?y ub:memberOf ?z .\n"
                           "}",
                       "", 0});
  return templates;
}

std::vector<QueryTemplate> Sp2bTemplates(size_t documents) {
  const std::string ns = datagen::Sp2b::kNs;
  // Pool sizes follow the generator's ratios (datagen/sp2b.cc).
  const size_t authors = std::max<size_t>(2, documents * 3 / 5);
  const size_t venues = std::max<size_t>(3, documents / 25);
  auto sp = [](const std::string& body) { return kSpPrefix + body; };
  return {
      // Point lookups; the slot constant is a Zipf draw over its pool.
      {"P1-citers", sp("SELECT ?x WHERE { ?x sp:cites {} . }"), ns + "doc/",
       documents},
      {"P2-author-papers",
       sp("SELECT ?d ?v WHERE { ?d sp:hasAuthor {} . "
          "?d sp:publishedIn ?v . }"),
       ns + "author/", authors},
      {"P3-venue-pubs",
       sp("SELECT ?d WHERE { ?d sp:publishedIn {} . ?d a sp:Publication . }"),
       ns + "venue/", venues},
      {"P4-doc-star",
       sp("SELECT ?p ?v ?o WHERE { {} sp:hasContributor ?p . "
          "{} sp:publishedIn ?v . {} sp:references ?o . }"),
       ns + "doc/", documents},
      {"P5-author-chain",
       sp("SELECT ?x ?y WHERE { ?w sp:hasAuthor {} . ?w sp:cites ?x . "
          "?x sp:cites ?y . }"),
       ns + "author/", authors},
      // Constant-free analytic queries.
      {"A1-publications", sp("SELECT ?d WHERE { ?d a sp:Publication . }"), "",
       0},
      {"A2-mutual-citations",
       sp("SELECT ?x ?y WHERE { ?x sp:cites ?y . ?y sp:cites ?x . }"), "", 0},
      {"A3-coauthor-cites",
       sp("SELECT ?x ?y ?p WHERE { ?x sp:hasAuthor ?p . ?y sp:hasAuthor ?p . "
          "?x sp:cites ?y . }"),
       "", 0},
  };
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kLubmMix:
      return "lubm-mix";
    case Workload::kSp2bRw:
      return "sp2b-rw";
  }
  return "unknown";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kLubmMix, Workload::kSp2bRw}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

size_t OpsPerSecond(Workload w) {
  switch (w) {
    case Workload::kLubmMix:
      return 350;
    case Workload::kSp2bRw:
      return 37;
  }
  return 100;
}

std::string QueryTemplate::Instantiate(uint32_t constant) const {
  if (!is_point()) return text;
  const std::string uri = "<" + slot_prefix + std::to_string(constant) + ">";
  std::string out;
  out.reserve(text.size() + 3 * uri.size());
  size_t from = 0;
  for (size_t at = text.find("{}"); at != std::string::npos;
       at = text.find("{}", from)) {
    out.append(text, from, at - from).append(uri);
    from = at + 2;
  }
  out.append(text, from, std::string::npos);
  return out;
}

WorkloadData MakeWorkloadData(Workload w) {
  WorkloadData data;
  data.workload = w;
  if (w == Workload::kLubmMix) {
    // The dataset of bench::SharedLubm(3): T1 and the pinned BM_Q6_* runs.
    datagen::LubmConfig config;
    config.universities = 3;
    config.referenced_universities = 10;
    datagen::Lubm::Generate(config, &data.graph);
    data.templates = LubmTemplates();
    const Strategy all[] = {Strategy::kSaturation, Strategy::kRefUcq,
                            Strategy::kRefScq, Strategy::kRefGcov};
    for (size_t t = 0; t < data.templates.size(); ++t) {
      const bool example1 = data.templates[t].name == "Example1";
      for (Strategy s : all) {
        // Example 1's UCQ has 37,636 CQs even with hierarchy encoding
        // (213,444 classic): it would dominate the mix.
        if (example1 && s == Strategy::kRefUcq) continue;
        data.classes.push_back(
            {data.templates[t].name + "/" + rdfref::api::StrategyName(s), t,
             s});
      }
    }
    for (size_t c = 0; c < data.classes.size(); ++c) {
      data.deck_reads.push_back(static_cast<uint16_t>(c));
    }
    data.uses_sat = true;
    return data;
  }

  datagen::Sp2bConfig config;
  config.scale = kSp2bScale;
  datagen::Sp2b::Generate(config, &data.graph);
  data.documents = static_cast<size_t>(config.documents * config.scale);
  data.templates = Sp2bTemplates(data.documents);
  for (size_t t = 0; t < data.templates.size(); ++t) {
    data.classes.push_back({data.templates[t].name + "/REF-GCOV", t,
                            Strategy::kRefGcov});
  }
  // 17 point lookups (85%) and 3 analytic queries (15%) per deck.
  const int per_deck[] = {5, 4, 3, 3, 2, 1, 1, 1};
  for (size_t c = 0; c < data.classes.size(); ++c) {
    for (int i = 0; i < per_deck[c]; ++i) {
      data.deck_reads.push_back(static_cast<uint16_t>(c));
    }
  }
  data.view_cache = true;
  data.writes_per_deck = 5;  // one op in five

  // The explicit cites edges, as document index pairs.
  std::unordered_map<rdf::TermId, uint32_t> doc_index;
  for (size_t i = 0; i < data.documents; ++i) {
    doc_index.emplace(data.graph.dict().InternUri(
                          datagen::Sp2b::DocumentUri(static_cast<int>(i))),
                      static_cast<uint32_t>(i));
  }
  const rdf::TermId cites =
      data.graph.dict().InternUri(datagen::Sp2b::Uri("cites"));
  for (const rdf::Triple& t : data.graph.triples()) {
    if (t.p != cites) continue;
    auto s = doc_index.find(t.s);
    auto o = doc_index.find(t.o);
    if (s != doc_index.end() && o != doc_index.end()) {
      data.base_cites.emplace_back(s->second, o->second);
    }
  }
  std::sort(data.base_cites.begin(), data.base_cites.end());
  return data;
}

size_t DecksFor(const WorkloadData& data, int seconds) {
  const size_t ops = OpsPerSecond(data.workload) *
                     static_cast<size_t>(std::max(seconds, 1));
  // The p99 rule: at least 1000 reads, so 10 lie beyond the p99 rank.
  const size_t min_decks =
      (1000 + data.deck_reads.size() - 1) / data.deck_reads.size();
  return std::max(min_decks,
                  (ops + data.deck_size() - 1) / data.deck_size());
}

std::vector<Op> MakeOps(const WorkloadData& data, uint64_t seed,
                        size_t decks) {
  // Independent streams, so drawing more constants never shifts the order
  // or the writes.
  rdfref::Rng root(seed);
  rdfref::Rng order_rng = root.Split();
  rdfref::Rng constant_rng = root.Split();
  rdfref::Rng write_rng = root.Split();

  std::vector<datagen::ZipfSampler> pools;
  pools.reserve(data.templates.size());
  for (const QueryTemplate& t : data.templates) {
    pools.emplace_back(std::max<size_t>(t.slot_pool, 1), 1.0);
  }
  const datagen::ZipfSampler doc_zipf(std::max<size_t>(data.documents, 1),
                                      1.0);
  std::unordered_set<uint64_t> present;
  for (const auto& [src, dst] : data.base_cites) {
    present.insert(PairKey(src, dst));
  }
  std::deque<std::pair<uint32_t, uint32_t>> live;

  // Deck slots: read class indexes, then kWrite markers.
  constexpr int kWrite = -1;
  std::vector<int> deck;
  for (uint16_t c : data.deck_reads) deck.push_back(c);
  for (int i = 0; i < data.writes_per_deck; ++i) deck.push_back(kWrite);

  std::vector<Op> ops;
  ops.reserve(decks * deck.size());
  for (size_t d = 0; d < decks; ++d) {
    // Fisher-Yates with the order stream.
    for (size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[order_rng.Uniform(i)]);
    }
    for (int slot : deck) {
      Op op;
      if (slot != kWrite) {
        op.read_class = static_cast<uint16_t>(slot);
        const size_t t = data.classes[op.read_class].template_index;
        if (data.templates[t].is_point()) {
          op.constant =
              static_cast<uint32_t>(pools[t].Sample(&constant_rng));
        }
        ops.push_back(op);
        continue;
      }
      // Fill the live set, then alternate: remove the oldest live edge,
      // insert a fresh one.
      if (live.size() < kLiveCitesBound) {
        uint32_t src = 0, dst = 0;
        do {
          src = static_cast<uint32_t>(write_rng.Uniform(data.documents));
          dst = static_cast<uint32_t>(doc_zipf.Sample(&write_rng));
        } while (src == dst || present.count(PairKey(src, dst)) > 0);
        present.insert(PairKey(src, dst));
        live.emplace_back(src, dst);
        op.kind = Op::kInsert;
        op.src = src;
        op.dst = dst;
      } else {
        op.kind = Op::kRemove;
        op.src = live.front().first;
        op.dst = live.front().second;
        present.erase(PairKey(op.src, op.dst));
        live.pop_front();
      }
      ops.push_back(op);
    }
  }
  return ops;
}

}  // namespace perfbench
