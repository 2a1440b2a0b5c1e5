// Rules 1-4: the serial-era invariants (allocation discipline, no-fail
// regions, acquire-before-first-C-write, [[nodiscard]] coverage), migrated
// from the original single-file linter.
#include "lint.hpp"

namespace lint {

// --- rule 1: allocation discipline -----------------------------------------
//
// The computational subsystems (src/core, src/blas, src/compare) draw every
// temporary from the Arena / the pack scratch. Raw `new`, malloc/calloc,
// and growable std::vector use there would silently break the
// measured-workspace story (Table 1). tuning/, parallel/, eigen/, solver/
// legitimately use containers for non-numeric bookkeeping and are exempt,
// as is support/ which implements the allocators themselves.

namespace {

bool in_alloc_checked_subsystem(const std::string& rel) {
  return rel.rfind("core/", 0) == 0 || rel.rfind("blas/", 0) == 0 ||
         rel.rfind("compare/", 0) == 0;
}

}  // namespace

void rule_alloc_discipline(const SourceFile& f, Sink& sink) {
  if (!in_alloc_checked_subsystem(f.rel)) return;
  static const struct {
    const char* token;
    const char* what;
  } kForbidden[] = {
      {"new", "raw `new`"},
      {"malloc(", "malloc"},
      {"calloc(", "calloc"},
      {"realloc(", "realloc"},
      {"std::vector", "std::vector"},
      {"push_back(", "vector growth (push_back)"},
      {"emplace_back(", "vector growth (emplace_back)"},
      {".resize(", "container growth (resize)"},
  };
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const std::size_t first = f.lines[i].find_first_not_of(" \t");
    if (first != std::string::npos && f.lines[i][first] == '#') {
      continue;  // preprocessor line (e.g. `#include <new>`)
    }
    for (const auto& fb : kForbidden) {
      if (has_token(f.lines[i], fb.token)) {
        sink.report(f, static_cast<long>(i + 1), "alloc-outside-support",
                    std::string(fb.what) +
                        " in a Table 1-accounted subsystem; draw temporaries "
                        "from the Arena or the pack scratch");
      }
    }
  }
}

// --- rule 2: no allocation inside ScopedSuspend scopes ---------------------
//
// Code textually inside a faultinject::ScopedSuspend scope has declared
// "acquisition is behind us" -- any Arena alloc/reserve, pack-capacity
// warm-up, or AlignedBuffer construction inside such a scope re-introduces
// a failure point the DESIGN.md section 7 contract says cannot exist.

void rule_nofail_regions(const SourceFile& f, Sink& sink) {
  static const char* kFallible[] = {
      ".alloc(",  "->alloc(",  ".reserve(", "->reserve(",
      ".probe(",  "->probe(",  "ensure_pack_capacity(", "AlignedBuffer(",
      // The pool-worker warm-up is an acquisition too: it may throw
      // bad_alloc or TaskError. Only run_batch_nofail is sanctioned inside
      // a no-fail region.
      "ensure_pack_capacity_all_workers(", "run_on_each_worker(",
      // DagRun construction allocates every piece of scheduling state a
      // run_dag call needs; it belongs to the pre-flight, never inside a
      // no-fail region (run_dag itself is sanctioned).
      "DagRun(",
      // Serving-layer acquisitions: Queue submission allocates request
      // state and may block or throw per the overflow policy, and a pool
      // carve is exactly the fallible step admission control exists to
      // front-load.
      ".submit(", "->submit(", "try_acquire(",
      // The madvise wrapper and the autotune persistence writes are
      // acquisition-phase work too: huge-page advice belongs with the
      // buffer's construction, and a criteria-file write can fail on any
      // filesystem error. Neither may hide inside a no-fail region.
      "advise_huge_pages(", "save_criteria_file(", "load_criteria_file(",
      // Prepack-handle construction allocates (or validates) the packed
      // image; it is acquisition-phase work by definition. The panel
      // cache's infallible filler is named fill_packed_image precisely so
      // it stays off this list.
      "pack_operand(", "gefmm_pack_a(", "gefmm_pack_b(",
  };
  int depth = 0;
  int suspend_depth = -1;  // brace depth at the ScopedSuspend declaration
  long suspend_line = 0;
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const std::string& line = f.lines[i];
    // The declaration commits the rest of its enclosing scope.
    if (suspend_depth < 0 && has_token(line, "ScopedSuspend")) {
      suspend_depth = depth;
      suspend_line = static_cast<long>(i + 1);
    } else if (suspend_depth >= 0) {
      for (const char* tok : kFallible) {
        if (has_token(line, tok)) {
          sink.report(f, static_cast<long>(i + 1), "alloc-in-nofail",
                      std::string("fallible call `") + tok +
                          "` inside the no-fail region opened by "
                          "ScopedSuspend at line " +
                          std::to_string(suspend_line));
        }
      }
    }
    for (const char c : line) {
      if (c == '{') {
        ++depth;
      } else if (c == '}') {
        --depth;
        if (suspend_depth >= 0 && depth <= suspend_depth) {
          suspend_depth = -1;  // the suspend's scope ended
        }
      }
    }
  }
}

// --- rule 3: acquire-before-first-C-write in drivers -----------------------
//
// In the driver functions (the shared gefmm templates plus the
// dgefmm*/sgefmm* entry points that instantiate them), every fallible
// acquisition must precede the dispatch into the computation (which is
// when C is first written). A fallible call after dispatch could fail with
// C half-written, which the strict policy forbids. Checking the shared
// template covers both element-type instantiations at once.

namespace {

// A dispatch token marks the first point at which C may be written.
bool is_dispatch(const std::string& line) {
  static const char* kDispatch[] = {
      "detail::fmm(", "fmm_fused(",    "pad_static(",
      "gemm_view(",   "run_task_dag(", "blas::dgemm(",
      "blas::sgemm(", "dispatch_request(",
  };
  for (const char* tok : kDispatch) {
    if (has_token(line, tok)) return true;
  }
  return false;
}

}  // namespace

void rule_acquire_before_dispatch(const SourceFile& f, Sink& sink) {
  static const char* kFallible[] = {
      ".reserve(", "->reserve(",           ".probe(",       "->probe(",
      ".alloc(",   "->alloc(",             "AlignedBuffer(",
      "ensure_pack_capacity(",             "run_on_each_worker(",
      "ensure_pack_capacity_all_workers(",
      "DagRun(",   ".submit(",             "->submit(",
      "try_acquire(",                      "advise_huge_pages(",
      "save_criteria_file(",               "load_criteria_file(",
      "pack_operand(", "gefmm_pack_a(",    "gefmm_pack_b(",
  };
  int depth = 0;
  bool in_driver = false;
  int driver_depth = 0;
  bool dispatched = false;
  bool pending_driver = false;  // signature seen, body brace not yet opened
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const std::string& line = f.lines[i];
    if (!in_driver && !pending_driver) {
      // A driver definition: the function name is one of the public
      // entry points or the shared element-generic templates behind them
      // (declarations and call statements end with ';' before any '{').
      // The templates are listed explicitly so the single definition is
      // checked on behalf of both the double and float instantiations.
      // execute_request is the serving worker's driver: it carves the
      // request's lease from the pool before dispatch_request writes C.
      static const char* kDriverNames[] = {
          "dgefmm", "sgefmm", "gefmm_view_t", "gefmm_t", "gefmm_parallel_t",
          "execute_request",
      };
      for (const char* name : kDriverNames) {
        const std::size_t pos = line.find(name);
        if (pos != std::string::npos &&
            (pos == 0 || !is_ident(line[pos - 1])) &&
            line.find('(', pos) != std::string::npos) {
          pending_driver = true;
          break;
        }
      }
    }
    if (in_driver) {
      if (dispatched) {
        for (const char* tok : kFallible) {
          if (has_token(line, tok)) {
            sink.report(f, static_cast<long>(i + 1), "fallible-after-c-write",
                        std::string("fallible call `") + tok +
                            "` after the driver dispatched into the "
                            "computation; acquire all workspace before the "
                            "first write to C (DESIGN.md section 7)");
          }
        }
      }
      if (is_dispatch(line)) dispatched = true;
    }
    for (std::size_t ci = 0; ci < line.size(); ++ci) {
      const char c = line[ci];
      // Definitions live at any brace depth (the sources wrap everything
      // in namespaces), so a pending signature arms at the next '{'; a
      // ';' first means it was only a declaration or a call statement.
      if (c == ';' && pending_driver) {
        pending_driver = false;
      } else if (c == '{') {
        if (pending_driver) {
          pending_driver = false;
          in_driver = true;
          driver_depth = depth;
          dispatched = false;
        }
        ++depth;
      } else if (c == '}') {
        --depth;
        if (in_driver && depth <= driver_depth) {
          in_driver = false;
          dispatched = false;
        }
      }
    }
  }
}

// --- rule 4: [[nodiscard]] on fallible value-returning APIs ----------------
//
// Entry points whose return value carries the argument-check/failure
// result must be annotated so call sites cannot silently drop it.
// (Arena::reserve and Arena::probe are fallible but report through
// exceptions and return void -- GCC rejects [[nodiscard]] on void returns
// -- so the table covers the value-returning surface.)

namespace {

struct NodiscardEntry {
  const char* file_suffix;  // header that owns the declaration
  const char* symbol;       // declaration substring to locate
};

constexpr NodiscardEntry kNodiscardTable[] = {
    {"core/dgefmm.hpp", "int dgefmm("},
    {"core/dgefmm.hpp", "count_t dgefmm_workspace_doubles("},
    {"core/sgefmm.hpp", "int sgefmm("},
    {"core/sgefmm.hpp", "count_t sgefmm_workspace_floats("},
    {"core/zgefmm.hpp", "int zgefmm("},
    {"core/zgefmm.hpp", "int zgemm4m("},
    {"core/cabi.hpp", "int strassen_dgefmm("},
    {"core/cabi.hpp", "int strassen_dgefmm_tuned("},
    {"core/cabi.hpp", "int strassen_sgefmm("},
    {"core/cabi.hpp", "int strassen_sgefmm_tuned("},
    {"core/workspace.hpp", "count_t workspace_doubles("},
    {"core/workspace.hpp", "count_t workspace_doubles_at("},
    {"core/workspace.hpp", "count_t workspace_floats("},
    {"core/workspace.hpp", "count_t parallel_workspace_doubles("},
    {"core/workspace.hpp", "count_t parallel_workspace_floats("},
    {"parallel/task_dag.hpp", "DagPlan plan_dag("},
    {"support/arena.hpp", "T* alloc("},
    {"support/arena_pool.hpp", "PoolLeaseT<T> try_acquire("},
    {"serve/serve.hpp", "TicketT<T> submit("},
    {"serve/serve_cabi.hpp", "int strassen_dgefmm_submit("},
    {"serve/serve_cabi.hpp", "int strassen_dgefmm_wait("},
    {"serve/serve_cabi.hpp", "int strassen_sgefmm_submit("},
    {"serve/serve_cabi.hpp", "int strassen_sgefmm_wait("},
    {"support/memadvise.hpp", "std::size_t advise_huge_pages("},
    {"tuning/persist.hpp", "bool save_criteria_file("},
    // The prepacked-operand surface (DESIGN.md section 15): dropping a
    // size query undersizes caller storage, dropping a handle leaks the
    // pack work, and dropping the consult/stream results silently skips
    // the hard-miss discipline.
    {"blas/pack_operand.hpp", "std::size_t gefmm_pack_a_elements("},
    {"blas/pack_operand.hpp", "std::size_t gefmm_pack_b_elements("},
    {"blas/pack_operand.hpp", "PackedOperandT<T> gefmm_pack_a("},
    {"blas/pack_operand.hpp", "PackedOperandT<T> gefmm_pack_b("},
    {"blas/pack_operand.hpp", "bool packed_operand_matches("},
    {"blas/gemm.hpp", "bool gemm_view_prepacked("},
    {"serve/serve_cabi.hpp", "int strassen_dgefmm_pack_b_size("},
    {"serve/serve_cabi.hpp", "int strassen_dgefmm_pack_b("},
    {"serve/serve_cabi.hpp", "int strassen_dgefmm_submit_packed("},
    {"serve/serve_cabi.hpp", "int strassen_sgefmm_pack_b_size("},
    {"serve/serve_cabi.hpp", "int strassen_sgefmm_pack_b("},
    {"serve/serve_cabi.hpp", "int strassen_sgefmm_submit_packed("},
};

}  // namespace

void rule_nodiscard(const SourceFile& f, Sink& sink) {
  for (const auto& e : kNodiscardTable) {
    const std::string suffix(e.file_suffix);
    if (f.rel != suffix) continue;
    bool found = false;
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      const std::size_t pos = f.lines[i].find(e.symbol);
      if (pos == std::string::npos) continue;
      found = true;
      // The annotation must appear in the same declaration statement:
      // on this line before the symbol, or on one of the two preceding
      // lines (attribute-on-its-own-line style).
      bool annotated =
          f.lines[i].substr(0, pos).find("[[nodiscard]]") !=
          std::string::npos;
      for (std::size_t back = 1; !annotated && back <= 2 && back <= i;
           ++back) {
        annotated = f.lines[i - back].find("[[nodiscard]]") !=
                    std::string::npos;
      }
      if (!annotated) {
        sink.report(f, static_cast<long>(i + 1), "missing-nodiscard",
                    std::string("fallible API `") + e.symbol +
                        "` must be declared [[nodiscard]]");
      }
      break;
    }
    if (!found) {
      sink.report(f, 1, "missing-nodiscard",
                  std::string("expected declaration `") + e.symbol +
                      "` not found (update the lint table if it moved)");
    }
  }
}

}  // namespace lint
