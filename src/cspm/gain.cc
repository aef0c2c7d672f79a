#include "cspm/gain.h"

#include <algorithm>
#include <array>

#include "mdl/codes.h"
#include "util/check.h"

namespace cspm::core {
namespace {

// Branch-free merge: advancing both cursors by comparison results keeps
// the loop free of unpredictable branches on interleaved lists.
uint64_t IntersectionSize(PosListView a, PosListView b) {
  uint64_t n = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const VertexId va = a[i];
    const VertexId vb = b[j];
    n += va == vb;
    i += va <= vb;
    j += vb <= va;
  }
  return n;
}

/// Pairs per row block of the seed kernel. Each costs 20 bytes of scratch
/// (counter + data and model sums), so a block stays under 10.5 MB; the
/// n=8000 pokec stand-in's 396k pairs fit in one.
constexpr uint64_t kSeedBlockPairs = uint64_t{1} << 19;
/// Entries of the seed kernel's x log2 x table (8 MB at most); larger
/// arguments are computed.
constexpr uint64_t kMaxXLog2XTable = uint64_t{1} << 20;
/// High bit of a pair's seed counter: set once some core overlapped (the
/// pair is feasible). The low bits count xy_e of the core being visited.
constexpr uint32_t kFeasibleBit = uint32_t{1} << 31;

[[maybe_unused]] bool AllLeafsetsAreSingletons(
    const LeafsetRegistry& leafsets) {
  for (LeafsetId l(0); l.index() < leafsets.size(); ++l) {
    if (leafsets.Values(l).size() != 1) return false;
  }
  return true;
}

/// Line sizes under one shared core: f_e, the x and y lines, the existing
/// union line (z_e, 0 when absent) and the overlap xy_e.
struct CoreCounts {
  uint64_t fe;
  uint64_t xe;
  uint64_t ye;
  uint64_t ze;
  uint64_t xye;
};

/// ST costs of a candidate pair's leafsets and of their union.
struct PairStCosts {
  double union_st;
  double x_st;
  double y_st;
};

double XLog2XOf(uint64_t n) { return mdl::XLog2X(static_cast<double>(n)); }

/// A merge gain's two running sums (GainResult's, without the counters).
struct GainSums {
  double data_gain_bits = 0.0;
  double model_delta_bits = 0.0;
};

/// Adds one shared core's terms of a merge gain to `sums`. `xlog2x(n)`
/// must equal XLog2XOf(n) bit for bit (the seed kernel passes a table).
template <typename XLog2XFn>
void AddCoreTerms(const CoreCounts& c, const PairStCosts& st, double core_code,
                  const XLog2XFn& xlog2x, GainSums* sums) {
  // P1 (Eq. 10): f_e log f_e - (f_e - xy_e) log(f_e - xy_e).
  sums->data_gain_bits += xlog2x(c.fe) - xlog2x(c.fe - c.xye);
  // P2 (Eqs. 11-15, generalized): old Σ l log l minus new Σ l log l over
  // the affected lines. XLog2X(0) = 0 handles the totally-merged cases
  // uniformly.
  const double old_terms = xlog2x(c.xe) + xlog2x(c.ye) + xlog2x(c.ze);
  const double new_terms =
      xlog2x(c.xe - c.xye) + xlog2x(c.ye - c.xye) + xlog2x(c.ze + c.xye);
  sums->data_gain_bits -= old_terms - new_terms;
  // Model delta for CTL: removed lines vs added line at this coreset.
  if (c.ze == 0) sums->model_delta_bits += st.union_st + core_code;
  if (c.xe == c.xye) sums->model_delta_bits -= st.x_st + core_code;
  if (c.ye == c.xye) sums->model_delta_bits -= st.y_st + core_code;
}

}  // namespace

GainResult ComputeMergeGain(const InvertedDatabase& idb, const CodeModel& cm,
                            LeafsetId x, LeafsetId y) {
  GainResult result;
  if (x == y) return result;
  if (idb.CoresOf(x).empty() || idb.CoresOf(y).empty()) return result;

  const std::vector<AttrId> union_values =
      idb.leafsets().UnionValues(x, y);
  // If y ⊆ x (or vice versa) the union equals one of the pair; by the
  // losslessness invariant their positions are disjoint under every shared
  // coreset, so the pair is infeasible. Detect cheaply and bail out.
  const LeafsetId existing_union = idb.leafsets().Find(union_values);
  if (existing_union == x || existing_union == y) return result;

  const PairStCosts st{cm.StCost(union_values),
                       cm.StCost(idb.leafsets().Values(x)),
                       cm.StCost(idb.leafsets().Values(y))};

  GainSums sums;
  idb.ForEachSharedCore(x, y, [&](CoreId e, PosListView px, PosListView py) {
    const uint64_t xye = IntersectionSize(px, py);
    if (xye == 0) return;  // nothing merges under this coreset
    result.feasible = true;
    ++result.cores_with_overlap;
    result.total_overlap += xye;
    uint64_t ze = 0;  // existing union line frequency, if any
    if (existing_union != LeafsetRegistry::kNotFound) {
      ze = idb.FindLine(e, existing_union).size();
    }
    AddCoreTerms({idb.CoreLineTotal(e), px.size(), py.size(), ze, xye}, st,
                 cm.CoreCodeLength(e), XLog2XOf, &sums);
  });
  if (result.feasible) {
    result.data_gain_bits = sums.data_gain_bits;
    result.model_delta_bits = sums.model_delta_bits;
  }
  return result;
}

uint64_t ForEachSeedGain(
    const InvertedDatabase& idb, const CodeModel& cm, GainPolicy policy,
    const std::function<void(LeafsetId x, LeafsetId y, double total)>& fn) {
  // Singletons make xy_e a plain co-occurrence count, and no union
  // leafset exists yet (ComputeMergeGain's z_e is 0).
  CSPM_DCHECK(AllLeafsetsAreSingletons(idb.leafsets()));
  const std::vector<LeafsetId>& actives = idb.active_leafsets();
  const size_t m = actives.size();
  if (m < 2) return 0;

  // Per rank (index into actives): the leaf value and its ST cost.
  std::vector<AttrId> value(m);
  std::vector<double> st_cost(m);
  for (size_t i = 0; i < m; ++i) {
    const std::vector<AttrId>& values = idb.leafsets().Values(actives[i]);
    value[i] = values[0];
    st_cost[i] = cm.StCost(values);
  }

  // Ranks with a line under each core, ascending (CSR), and the table of
  // x log2 x over 0..max f_e, which bounds every argument below.
  const size_t num_cores = idb.num_coresets();
  std::vector<size_t> under_begin(num_cores + 1, 0);
  for (LeafsetId l : actives) {
    for (CoreId e : idb.CoresOf(l)) ++under_begin[e.index() + 1];
  }
  for (size_t e = 0; e < num_cores; ++e) under_begin[e + 1] += under_begin[e];
  std::vector<uint32_t> under(under_begin[num_cores]);
  {
    std::vector<size_t> fill(under_begin.begin(), under_begin.end() - 1);
    for (uint32_t i = 0; i < m; ++i) {
      for (CoreId e : idb.CoresOf(actives[i])) under[fill[e.index()]++] = i;
    }
  }
  uint64_t max_fe = 0;
  for (CoreId e(0); e.index() < num_cores; ++e) {
    max_fe = std::max(max_fe, idb.CoreLineTotal(e));
  }
  std::vector<double> xlog(std::min(max_fe, kMaxXLog2XTable) + 1);
  for (size_t k = 0; k < xlog.size(); ++k) {
    xlog[k] = mdl::XLog2X(static_cast<double>(k));
  }
  auto xlog2x = [&xlog](uint64_t k) {
    return k < xlog.size() ? xlog[k] : mdl::XLog2X(static_cast<double>(k));
  };

  // Per-core transposition scratch: line sizes by rank, and the leaf ranks
  // of each position grouped by vertex.
  const size_t n = idb.vertex_coresets().size();
  std::vector<uint64_t> line_size(m, 0);
  std::vector<PosListView> lines;
  std::vector<uint32_t> vertex_count(n, 0);
  std::vector<size_t> vertex_begin(n, 0);
  std::vector<VertexId> vertices;
  std::vector<uint32_t> leaf_ranks;
  // Per-pair state of one row block, indexed by
  // row_offset[i - r0] + j - i - 1.
  std::vector<uint64_t> row_offset;
  std::vector<uint32_t> count;
  std::vector<GainSums> sums;

  for (size_t r0 = 0; r0 + 1 < m;) {
    size_t r1 = r0;
    uint64_t pairs = 0;
    row_offset.clear();
    while (r1 + 1 < m &&
           (r1 == r0 || pairs + (m - 1 - r1) <= kSeedBlockPairs)) {
      row_offset.push_back(pairs);
      pairs += m - 1 - r1;
      ++r1;
    }
    count.assign(pairs, 0);
    sums.assign(pairs, GainSums{});

    // Ascending cores: each pair's sums follow ComputeMergeGain's
    // ForEachSharedCore order.
    for (CoreId e(0); e.index() < num_cores; ++e) {
      const uint32_t* begin = under.data() + under_begin[e.index()];
      const uint32_t* end = under.data() + under_begin[e.index() + 1];
      // No pair under e has its smaller rank in [r0, r1).
      if (end - begin < 2 || begin[0] >= r1 || end[-2] < r0) continue;

      // Transpose the core's lines into per-vertex leaf-rank lists; ranks
      // arrive ascending, so every list is sorted.
      lines.clear();
      vertices.clear();
      for (const uint32_t* r = begin; r != end; ++r) {
        const PosListView line = idb.FindLine(e, actives[*r]);
        line_size[*r] = line.size();
        lines.push_back(line);
        for (VertexId v : line) {
          if (vertex_count[v.index()]++ == 0) vertices.push_back(v);
        }
      }
      size_t offset = 0;
      for (VertexId v : vertices) {
        vertex_begin[v.index()] = offset;
        offset += vertex_count[v.index()];
        vertex_count[v.index()] = 0;
      }
      leaf_ranks.resize(offset);
      for (size_t k = 0; k < lines.size(); ++k) {
        for (VertexId v : lines[k]) {
          leaf_ranks[vertex_begin[v.index()] + vertex_count[v.index()]++] =
              begin[k];
        }
      }

      // Count every pair of leaves on each vertex: xy_e.
      for (VertexId v : vertices) {
        const uint32_t* ranks = leaf_ranks.data() + vertex_begin[v.index()];
        const uint32_t k = vertex_count[v.index()];
        vertex_count[v.index()] = 0;
        for (uint32_t a = 0; a + 1 < k; ++a) {
          const uint32_t i = ranks[a];
          if (i < r0) continue;
          if (i >= r1) break;
          uint32_t* row = count.data() + row_offset[i - r0];
          for (uint32_t b = a + 1; b < k; ++b) {
            ++row[ranks[b] - i - 1];
          }
        }
      }

      // ComputeMergeGain's per-core terms, with z_e = 0, for every
      // overlapping pair under e — walked in row-major order, which keeps
      // the block's memory access sequential.
      const uint64_t fe = idb.CoreLineTotal(e);
      const double core_code = cm.CoreCodeLength(e);
      for (const uint32_t* a = begin; a + 1 < end; ++a) {
        const uint32_t i = *a;
        if (i < r0) continue;
        if (i >= r1) break;
        const uint64_t xe = line_size[i];
        const size_t row = row_offset[i - r0];
        for (const uint32_t* b = a + 1; b != end; ++b) {
          const uint32_t j = *b;
          const size_t idx = row + (j - i - 1);
          const uint64_t xye = count[idx] & ~kFeasibleBit;
          if (xye == 0) continue;
          count[idx] = kFeasibleBit;
          const std::array<AttrId, 2> union_values{
              std::min(value[i], value[j]), std::max(value[i], value[j])};
          AddCoreTerms({fe, xe, line_size[j], 0, xye},
                       {cm.StCost(union_values), st_cost[i], st_cost[j]},
                       core_code, xlog2x, &sums[idx]);
        }
      }
    }

    for (size_t i = r0; i < r1; ++i) {
      const size_t row = row_offset[i - r0];
      for (size_t j = i + 1; j < m; ++j) {
        const size_t idx = row + (j - i - 1);
        if (count[idx] == 0) continue;
        GainResult gain;
        gain.data_gain_bits = sums[idx].data_gain_bits;
        gain.model_delta_bits = sums[idx].model_delta_bits;
        fn(actives[i], actives[j], gain.Total(policy));
      }
    }
    r0 = r1;
  }
  return static_cast<uint64_t>(m) * (m - 1) / 2;
}

GainResult ComputeSplitGain(const InvertedDatabase& idb, const CodeModel& cm,
                            CoreId e, LeafsetId l) {
  GainResult result;
  const PosListView line = idb.FindLine(e, l);
  if (line.empty()) return result;
  const std::vector<AttrId>& values = idb.leafsets().Values(l);
  if (values.size() < 2) return result;

  const uint64_t fl = line.size();
  const uint64_t fe = idb.CoreLineTotal(e);
  const uint64_t grown = fe + (static_cast<uint64_t>(values.size()) - 1) * fl;

  result.feasible = true;
  result.cores_with_overlap = 1;
  result.total_overlap = fl;

  // Eq. 8's core term grows from f_e to f_e + (|values|-1) fL; the split
  // line leaves the Σ fL log fL sum and every member singleton absorbs fL.
  result.data_gain_bits = mdl::XLog2X(static_cast<double>(fe)) -
                          mdl::XLog2X(static_cast<double>(grown)) -
                          mdl::XLog2X(static_cast<double>(fl));
  result.model_delta_bits = -cm.LineModelCost(values, e);
  const double core_code = cm.CoreCodeLength(e);
  std::vector<AttrId> singleton(1, AttrId(0));
  for (AttrId a : values) {
    singleton[0] = a;
    uint64_t se = 0;
    const LeafsetId s = idb.leafsets().Find(singleton);
    if (s != LeafsetRegistry::kNotFound) se = idb.FindLine(e, s).size();
    result.data_gain_bits += mdl::XLog2X(static_cast<double>(se + fl)) -
                             mdl::XLog2X(static_cast<double>(se));
    if (se == 0) result.model_delta_bits += cm.StCost(singleton) + core_code;
  }
  return result;
}

}  // namespace cspm::core
