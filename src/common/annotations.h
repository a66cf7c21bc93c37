#ifndef RDFREF_COMMON_ANNOTATIONS_H_
#define RDFREF_COMMON_ANNOTATIONS_H_

/// \file
/// \brief Lifetime and borrow annotations for the zero-copy API surface.
///
/// The batch engine's speed comes from borrowed views: `std::span` ranges
/// into store permutation indexes, delta runs and pinned snapshot epochs
/// (DESIGN.md §9, §11). A borrowed span that outlives its source is today a
/// local use-after-free; once store images are mmap'd and served by forked
/// workers, it becomes cross-process corruption. These macros make the
/// borrow contracts machine-checkable on two independent backends:
///
///  - under Clang, `RDFREF_LIFETIME_BOUND` expands to
///    `[[clang::lifetimebound]]`, so the compiler's own -Wdangling family
///    flags a span bound to a temporary or destroyed source at the call
///    site;
///  - `tools/rdfref_check` (the Clang-AST analyzer, DESIGN.md §14) requires
///    every function returning a borrowed view to carry one of these
///    markers, requires span-typed fields to live in a
///    `RDFREF_BORROWS_FROM(...)`-annotated holder, and bans raw
///    `SnapshotSource` pointers stored beyond their pinning `shared_ptr`.
///
/// On compilers without the attributes (GCC), everything expands to
/// nothing: zero overhead, no behavioural difference.
///
/// Conventions (DESIGN.md §14):
///  - an accessor returning a view into `*this` (or into state `*this`
///    keeps alive) is suffixed with `RDFREF_LIFETIME_BOUND` after its
///    cv-qualifiers; a parameter the result borrows from carries the macro
///    after the parameter name;
///  - a class whose *fields* hold borrowed views declares the borrow up
///    front: `class RDFREF_BORROWS_FROM(source) PatternCursor { ... };` —
///    naming what the views point into. The checker treats un-annotated
///    span fields as escapes;
///  - a deliberate violation is silenced for one declaration with
///    `// rdfref-check: allow(<rule>)` plus a justification (stale
///    escapes fail CI).

#if defined(__clang__)
/// The returned view borrows from the annotated parameter (or, placed
/// after a member function's cv-qualifiers, from *this): Clang warns when
/// the result outlives it.
#define RDFREF_LIFETIME_BOUND [[clang::lifetimebound]]
#define RDFREF_ANNOTATE_(text) [[clang::annotate(text)]]
#else
#define RDFREF_LIFETIME_BOUND  // no-op outside Clang
#define RDFREF_ANNOTATE_(text)  // no-op outside Clang
#endif

/// Declares the borrow contract of a view-holding class or view-returning
/// function: the views point into the named sources, which must outlive
/// every use. Verified structurally by tools/rdfref_check (span fields and
/// span returns without a contract are findings).
#define RDFREF_BORROWS_FROM(...) \
  RDFREF_ANNOTATE_("rdfref::borrows_from:" #__VA_ARGS__)

/// Declares that a mutable field of a mutex-owning class is deliberately
/// outside that mutex's critical sections (externally synchronized, or
/// confined to one thread), with the reason inline. Without this (or
/// RDFREF_GUARDED_BY), tools/rdfref_check flags any such field touched
/// from two or more methods — the gap Clang's thread-safety analysis
/// silently ignores for unannotated fields.
#define RDFREF_NOT_GUARDED(reason) \
  RDFREF_ANNOTATE_("rdfref::not_guarded:" reason)

#endif  // RDFREF_COMMON_ANNOTATIONS_H_
