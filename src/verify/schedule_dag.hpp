// Dependency DAG of the fused Strassen schedules, derived at compile time
// from the proved product tables in schedule_ir.hpp.
//
// The parallel executor (src/parallel/task_dag.cpp) does not hand-code its
// task graph: it reads the same verify::kFusedL1 table the serial fused
// schedule emits from, reshaped here into an explicit bipartite DAG
//
//     product node M_p  -->  combine node C_t   (one edge per c-term)
//
// with one product node per table entry (7) and one combine node per C
// block of the quadrant grid (4). A product
// node owns its operand combinations -- the operand sums of the pebble
// game are contracted into the product, because the packing-fused leaf
// forms them while packing (or materializes them leaf-locally), so they
// never exist as schedulable state. A combine node lists every
// gamma-weighted product that lands in its C block, in ascending product
// order; the runtime applies the terms in exactly that order, which is
// what makes the parallel result bitwise independent of thread count and
// steal order.
//
// The static_asserts at the bottom prove:
//   * coverage: every c-term of every product appears in exactly one
//     combine list, with the table's coefficient, and nothing else does;
//   * order: each combine list is strictly ascending in product index
//     (the fixed application order exists and is total);
//   * acyclicity: a Kahn peel over the edges retires every node (products
//     have in-degree zero; every combine's dependencies are satisfiable).
#pragma once

#include "verify/schedule_ir.hpp"

namespace strassen::verify {

/// One gamma-weighted product feeding a combine node: g * M_product.
struct DagTerm {
  signed short product = 0;
  double g = 0.0;
};

/// Bipartite task DAG of one fused product table: NP product nodes feeding
/// NB combine nodes (one per block of the C quadrant grid). Combine node t
/// depends on terms[term_begin[t] .. term_begin[t+1]).
template <int NP, int NB>
struct ScheduleDag {
  static constexpr int kProducts = NP;
  static constexpr int kBlocks = NB;
  DagTerm terms[NP * kMaxFusedTerms] = {};
  int term_begin[NB + 1] = {};
  int nterms = 0;
};

/// Derives the DAG from a product table: block t's term list collects every
/// (p, g) with an FTerm{t, g} in product p's c-list. Scanning products in
/// ascending order makes each list ascending by construction; the checks
/// below re-verify rather than assume it.
template <int NP, int NB>
constexpr ScheduleDag<NP, NB> build_dag(const FProduct* table) {
  ScheduleDag<NP, NB> d{};
  int pos = 0;
  for (int blk = 0; blk < NB; ++blk) {
    d.term_begin[blk] = pos;
    for (int p = 0; p < NP; ++p) {
      for (int e = 0; e < table[p].nc; ++e) {
        if (table[p].c[e].q == blk) {
          d.terms[pos] = DagTerm{static_cast<signed short>(p),
                                 table[p].c[e].g};
          ++pos;
        }
      }
    }
  }
  d.term_begin[NB] = pos;
  d.nterms = pos;
  return d;
}

inline constexpr auto kDagL1 = build_dag<kFusedL1Products, 4>(kFusedL1);

/// Coverage + coefficient fidelity: the DAG's combine lists are exactly the
/// table's c-terms -- each (product, block) pair of the table appears once
/// with the table's gamma, the term total matches, every block combines at
/// least one product, and every product feeds at least one block (no dead
/// work in the graph).
template <int NP, int NB>
constexpr bool dag_covers_table(const ScheduleDag<NP, NB>& d,
                                const FProduct* table) {
  int expected = 0;
  for (int p = 0; p < NP; ++p) expected += table[p].nc;
  if (d.nterms != expected || d.term_begin[0] != 0 ||
      d.term_begin[NB] != d.nterms) {
    return false;
  }
  for (int p = 0; p < NP; ++p) {
    for (int e = 0; e < table[p].nc; ++e) {
      const int blk = table[p].c[e].q;
      if (blk < 0 || blk >= NB) return false;
      int hits = 0;
      for (int t = d.term_begin[blk]; t < d.term_begin[blk + 1]; ++t) {
        if (d.terms[t].product == p && d.terms[t].g == table[p].c[e].g) {
          ++hits;
        }
      }
      if (hits != 1) return false;
    }
  }
  for (int blk = 0; blk < NB; ++blk) {
    if (d.term_begin[blk + 1] <= d.term_begin[blk]) return false;
    for (int t = d.term_begin[blk] + 1; t < d.term_begin[blk + 1]; ++t) {
      if (d.terms[t].product <= d.terms[t - 1].product) return false;
    }
  }
  for (int p = 0; p < NP; ++p) {
    bool feeds = false;
    for (int t = 0; t < d.nterms; ++t) {
      if (d.terms[t].product == p) feeds = true;
    }
    if (!feeds) return false;
  }
  return true;
}

/// Kahn peel: products carry no incoming edges, so they retire first; a
/// combine retires once every term's producer has. Retiring all NP + NB
/// nodes proves the graph acyclic and every dependency satisfiable.
template <int NP, int NB>
constexpr bool dag_is_acyclic(const ScheduleDag<NP, NB>& d) {
  bool product_done[NP] = {};
  int retired = 0;
  for (int p = 0; p < NP; ++p) {
    product_done[p] = true;
    ++retired;
  }
  for (int blk = 0; blk < NB; ++blk) {
    for (int t = d.term_begin[blk]; t < d.term_begin[blk + 1]; ++t) {
      const int p = d.terms[t].product;
      if (p < 0 || p >= NP || !product_done[p]) return false;
    }
    ++retired;
  }
  return retired == NP + NB;
}

/// A total order over the NP + NB DAG nodes: position `at[i]` holds a node
/// id, with products numbered 0..NP-1 and combine node b numbered NP + b.
template <int NP, int NB>
struct NodeOrder {
  int at[NP + NB] = {};
};

/// The order the executor's fixed combine pass walks: all products first
/// (any completion order is covered because every product precedes every
/// combine here), then the combine nodes in ascending block index.
template <int NP, int NB>
constexpr NodeOrder<NP, NB> ascending_order() {
  NodeOrder<NP, NB> o{};
  for (int i = 0; i < NP + NB; ++i) o.at[i] = i;
  return o;
}

/// Lemma: `o` is a linear extension of the DAG -- a permutation of the
/// node set in which every combine node appears after every product node
/// feeding it. This is the schedule-correctness fact the serial fused
/// walk and the parallel executor's deterministic combine pass both rest
/// on: applying combines in the fixed ascending order can never read a
/// product that the order has not already placed.
template <int NP, int NB>
constexpr bool order_is_linear_extension(const ScheduleDag<NP, NB>& d,
                                         const NodeOrder<NP, NB>& o) {
  constexpr int kNodes = NP + NB;
  // Permutation check, and invert: pos[node] = position in the order.
  int pos[kNodes] = {};
  bool seen[kNodes] = {};
  for (int i = 0; i < kNodes; ++i) {
    const int node = o.at[i];
    if (node < 0 || node >= kNodes || seen[node]) return false;
    seen[node] = true;
    pos[node] = i;
  }
  // Every edge product p --> combine b respects the order.
  for (int blk = 0; blk < NB; ++blk) {
    for (int t = d.term_begin[blk]; t < d.term_begin[blk + 1]; ++t) {
      const int p = d.terms[t].product;
      if (p < 0 || p >= NP) return false;
      if (pos[p] >= pos[NP + blk]) return false;
    }
  }
  return true;
}

static_assert(dag_covers_table(kDagL1, kFusedL1),
              "task DAG does not match the proved L1 product table");
static_assert(dag_is_acyclic(kDagL1),
              "task DAG must be acyclic with satisfiable deps");
static_assert(kDagL1.nterms == 12,
              "fused c-term total changed; re-derive the DAG invariants");
static_assert(
    order_is_linear_extension(kDagL1,
                              ascending_order<kFusedL1Products, 4>()),
    "the fixed ascending combine order is not a linear extension of the "
    "task DAG");

}  // namespace strassen::verify
