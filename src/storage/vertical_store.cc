#include "storage/vertical_store.h"

#include <algorithm>

namespace rdfref {
namespace storage {

VerticalStore::VerticalStore(const rdf::Graph& graph)
    : dict_(&graph.dict()) {
  for (const rdf::Triple& t : graph.triples()) {
    tables_[t.p].by_subject.emplace_back(t.s, t.o);
  }
  properties_.reserve(tables_.size());
  for (auto& [p, table] : tables_) {
    std::sort(table.by_subject.begin(), table.by_subject.end());
    table.by_subject.erase(
        std::unique(table.by_subject.begin(), table.by_subject.end()),
        table.by_subject.end());
    table.by_object.reserve(table.by_subject.size());
    for (const auto& [s, o] : table.by_subject) {
      table.by_object.emplace_back(o, s);
    }
    std::sort(table.by_object.begin(), table.by_object.end());
    total_ += table.by_subject.size();
    properties_.push_back(p);
  }
  std::sort(properties_.begin(), properties_.end());
}

void VerticalStore::ScanTable(const PropertyTable& table, rdf::TermId p,
                              rdf::TermId s, rdf::TermId o,
                              std::vector<rdf::Triple>* out) {
  const bool bs = s != kAny, bo = o != kAny;
  if (bs) {
    auto begin = std::lower_bound(
        table.by_subject.begin(), table.by_subject.end(),
        std::make_pair(s, bo ? o : rdf::TermId{0}));
    for (auto it = begin; it != table.by_subject.end() && it->first == s;
         ++it) {
      if (bo && it->second != o) {
        if (it->second > o) break;
        continue;
      }
      out->emplace_back(it->first, p, it->second);
    }
    return;
  }
  if (bo) {
    auto begin = std::lower_bound(table.by_object.begin(),
                                  table.by_object.end(),
                                  std::make_pair(o, rdf::TermId{0}));
    for (auto it = begin; it != table.by_object.end() && it->first == o;
         ++it) {
      out->emplace_back(it->second, p, it->first);
    }
    return;
  }
  for (const auto& [subj, obj] : table.by_subject) {
    out->emplace_back(subj, p, obj);
  }
}

size_t VerticalStore::CountTable(const PropertyTable& table, rdf::TermId s,
                                 rdf::TermId o) {
  const bool bs = s != kAny, bo = o != kAny;
  if (bs && bo) {
    return std::binary_search(table.by_subject.begin(),
                              table.by_subject.end(), std::make_pair(s, o))
               ? 1
               : 0;
  }
  if (bs) {
    auto range = std::equal_range(
        table.by_subject.begin(), table.by_subject.end(),
        std::make_pair(s, rdf::TermId{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    return static_cast<size_t>(range.second - range.first);
  }
  if (bo) {
    auto range = std::equal_range(
        table.by_object.begin(), table.by_object.end(),
        std::make_pair(o, rdf::TermId{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    return static_cast<size_t>(range.second - range.first);
  }
  return table.by_subject.size();
}

void VerticalStore::ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                             std::vector<rdf::Triple>* out) const {
  out->clear();
  if (p != kAny) {
    auto it = tables_.find(p);
    if (it != tables_.end()) ScanTable(it->second, p, s, o, out);
    return;
  }
  // Unbound property: union over every per-property table.
  for (rdf::TermId prop : properties_) {
    ScanTable(tables_.at(prop), prop, s, o, out);
  }
}

size_t VerticalStore::CountMatches(rdf::TermId s, rdf::TermId p,
                                   rdf::TermId o) const {
  if (p != kAny) {
    auto it = tables_.find(p);
    return it == tables_.end() ? 0 : CountTable(it->second, s, o);
  }
  size_t total = 0;
  for (rdf::TermId prop : properties_) {
    total += CountTable(tables_.at(prop), s, o);
  }
  return total;
}

}  // namespace storage
}  // namespace rdfref
