// Negative-compilation probe: a silently discarded Result<T> / Status must
// fail the static-analysis build (common/result.h and common/status.h are
// class-level [[nodiscard]]; the gate compiles this file with
// -Werror=unused-result).
//
// Compiled twice by tests/negative/CMakeLists.txt:
//   - without RDFREF_NEGATIVE: the control build — must SUCCEED, proving a
//     failure of the negative build is the violation and not e.g. a broken
//     include path;
//   - with -DRDFREF_NEGATIVE: adds the violations — must FAIL.
// At configure time the negative build runs once per class
// (-DRDFREF_ONLY_RESULT, -DRDFREF_ONLY_STATUS), so each class's attribute
// is proved on its own.

#include "common/result.h"
#include "common/status.h"

namespace {

rdfref::Result<int> MakeResult() { return 42; }
rdfref::Status MakeStatus() { return rdfref::Status::Internal("boom"); }

int Use() {
  // Properly observed returns: always legal.
  rdfref::Result<int> r = MakeResult();
  rdfref::Status s = MakeStatus();
  int total = (r.ok() ? *r : 0) + (s.ok() ? 0 : 1);

#if defined(RDFREF_NEGATIVE) && !defined(RDFREF_ONLY_STATUS)
  MakeResult();  // dropped Result<int> — must not compile
#endif
#if defined(RDFREF_NEGATIVE) && !defined(RDFREF_ONLY_RESULT)
  MakeStatus();  // dropped Status — must not compile
#endif

  return total;
}

}  // namespace

int main() { return Use(); }
