#include "storage/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "rdf/encoding.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace storage {

namespace {

constexpr char kMagic[4] = {'R', 'D', 'F', 'B'};
constexpr uint32_t kVersion = 2;
constexpr uint32_t kMinVersion = 1;  // v1: no trailing encoding section

void WriteU32(std::ostream& out, uint32_t v) {
  char buf[4] = {static_cast<char>(v & 0xff),
                 static_cast<char>((v >> 8) & 0xff),
                 static_cast<char>((v >> 16) & 0xff),
                 static_cast<char>((v >> 24) & 0xff)};
  out.write(buf, 4);
}

bool ReadU32(std::istream& in, uint32_t* v) {
  unsigned char buf[4];
  if (!in.read(reinterpret_cast<char*>(buf), 4)) return false;
  *v = static_cast<uint32_t>(buf[0]) | (static_cast<uint32_t>(buf[1]) << 8) |
       (static_cast<uint32_t>(buf[2]) << 16) |
       (static_cast<uint32_t>(buf[3]) << 24);
  return true;
}

}  // namespace

Status SaveGraph(const rdf::Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open for writing: " + path);

  const rdf::Dictionary& dict = graph.dict();
  out.write(kMagic, 4);
  WriteU32(out, kVersion);
  WriteU32(out, static_cast<uint32_t>(dict.size()));
  WriteU32(out, static_cast<uint32_t>(graph.size()));

  // Dictionary ids are dense 0..size-1 under any permutation; the image
  // records terms in id order.  // rdfref-check: allow(termid-arith)
  for (rdf::TermId id = 0; id < dict.size(); ++id) {
    const rdf::Term& term = dict.Lookup(id);
    char kind = static_cast<char>(term.kind);
    out.write(&kind, 1);
    WriteU32(out, static_cast<uint32_t>(term.lexical.size()));
    out.write(term.lexical.data(),
              static_cast<std::streamsize>(term.lexical.size()));
  }
  for (const rdf::Triple& t : graph.SortedTriples()) {
    WriteU32(out, t.s);
    WriteU32(out, t.p);
    WriteU32(out, t.o);
  }

  const rdf::TermEncoding* encoding = dict.encoding();
  WriteU32(out, encoding != nullptr ? 1 : 0);
  if (encoding != nullptr) {
    auto write_intervals =
        [&](const std::map<rdf::TermId, rdf::TermEncoding::Interval>& m) {
          WriteU32(out, static_cast<uint32_t>(m.size()));
          for (const auto& [id, iv] : m) {
            WriteU32(out, id);
            WriteU32(out, iv.lo);
            WriteU32(out, iv.hi);
          }
        };
    write_intervals(encoding->class_intervals());
    write_intervals(encoding->property_intervals());
    WriteU32(out,
             static_cast<uint32_t>(encoding->scc_representatives().size()));
    for (const auto& [id, rep] : encoding->scc_representatives()) {
      WriteU32(out, id);
      WriteU32(out, rep);
    }
  }
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<rdf::Graph> LoadGraph(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open: " + path);
  // Lengths read from the image are checked against the bytes it has left
  // before anything is sized from them.
  const std::streamoff image_size = in.tellg();
  in.seekg(0);
  if (image_size < 0 || !in) {
    return Status::ParseError("cannot size RDFB graph image: " + path);
  }

  char magic[4];
  if (!in.read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::ParseError("not an RDFB graph image: " + path);
  }
  uint32_t version = 0, num_terms = 0, num_triples = 0;
  if (!ReadU32(in, &version) || version < kMinVersion ||
      version > kVersion) {
    return Status::ParseError("unsupported RDFB version");
  }
  if (!ReadU32(in, &num_terms) || !ReadU32(in, &num_triples)) {
    return Status::ParseError("truncated RDFB header");
  }
  if (num_terms < rdf::vocab::kNumBuiltins) {
    return Status::ParseError("RDFB image is missing the built-in terms");
  }

  rdf::Graph graph;
  for (uint32_t id = 0; id < num_terms; ++id) {
    char kind = 0;
    uint32_t length = 0;
    if (!in.read(&kind, 1) || !ReadU32(in, &length)) {
      return Status::ParseError("truncated term table");
    }
    if (static_cast<unsigned char>(kind) >
        static_cast<unsigned char>(rdf::TermKind::kBlank)) {
      return Status::ParseError("unknown term kind in RDFB term table");
    }
    const std::streamoff left = image_size - in.tellg();
    if (static_cast<std::streamoff>(length) > left) {
      return Status::ParseError("RDFB term longer than the image");
    }
    std::string lexical(length, '\0');
    if (length > 0 && !in.read(lexical.data(), length)) {
      return Status::ParseError("truncated term table");
    }
    rdf::Term term(static_cast<rdf::TermKind>(kind), std::move(lexical));
    rdf::TermId interned = graph.dict().Intern(term);
    if (interned != id) {
      // The image's ids must be dense and in intern order (the built-ins
      // first); anything else means a corrupted or reordered file.
      return Status::ParseError("RDFB term table out of intern order");
    }
  }
  for (uint32_t i = 0; i < num_triples; ++i) {
    uint32_t s = 0, p = 0, o = 0;
    if (!ReadU32(in, &s) || !ReadU32(in, &p) || !ReadU32(in, &o)) {
      return Status::ParseError("truncated triple table");
    }
    if (s >= num_terms || p >= num_terms || o >= num_terms) {
      return Status::ParseError("triple references unknown term");
    }
    graph.Add(s, p, o);
  }

  if (version >= 2) {
    uint32_t has_encoding = 0;
    if (!ReadU32(in, &has_encoding)) {
      return Status::ParseError("truncated encoding flag");
    }
    if (has_encoding > 1) {
      return Status::ParseError("bad encoding flag");
    }
    if (has_encoding == 1) {
      auto encoding = std::make_shared<rdf::TermEncoding>();
      auto read_intervals = [&](bool classes) -> bool {
        uint32_t n = 0;
        if (!ReadU32(in, &n)) return false;
        for (uint32_t i = 0; i < n; ++i) {
          uint32_t id = 0, lo = 0, hi = 0;
          if (!ReadU32(in, &id) || !ReadU32(in, &lo) || !ReadU32(in, &hi)) {
            return false;
          }
          if (id >= num_terms || lo > hi || hi >= num_terms) return false;
          rdf::TermEncoding::Interval iv{lo, hi};
          if (classes) {
            encoding->SetClassInterval(id, iv);
          } else {
            encoding->SetPropertyInterval(id, iv);
          }
        }
        return true;
      };
      if (!read_intervals(true) || !read_intervals(false)) {
        return Status::ParseError("truncated interval table");
      }
      uint32_t num_sccs = 0;
      if (!ReadU32(in, &num_sccs)) {
        return Status::ParseError("truncated SCC table");
      }
      for (uint32_t i = 0; i < num_sccs; ++i) {
        uint32_t id = 0, rep = 0;
        if (!ReadU32(in, &id) || !ReadU32(in, &rep)) {
          return Status::ParseError("truncated SCC table");
        }
        if (id >= num_terms || rep >= num_terms) {
          return Status::ParseError("SCC entry references unknown term");
        }
        encoding->SetSccRepresentative(id, rep);
      }
      graph.dict().set_encoding(std::move(encoding));
    }
  }
  return graph;
}

}  // namespace storage
}  // namespace rdfref
