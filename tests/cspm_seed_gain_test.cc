// Property test of the CSPM-Partial seed kernel (ForEachSeedGain) against
// the pairwise oracle it replaces: on every pre-merge database below, for
// every pair of active leafsets, the kernel's feasibility and total must
// equal ComputeMergeGain's bit for bit (memcmp), under both gain policies,
// and the pairs it accepts into the candidate store must be the same ones
// in the same order.
#include "cspm/gain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "cspm/candidates.h"
#include "cspm/miner.h"
#include "datasets/synthetic.h"
#include "graph/graph_delta.h"
#include "testing_util.h"
#include "util/rng.h"

namespace cspm::core {
namespace {

struct SeedPair {
  uint64_t key;
  double total;
};

void ExpectSeedMatchesPairwise(const InvertedDatabase& idb,
                               const CodeModel& cm) {
  const double threshold = CspmOptions{}.min_gain_bits;
  const std::vector<LeafsetId>& actives = idb.active_leafsets();
  const uint64_t m = actives.size();
  for (GainPolicy policy :
       {GainPolicy::kDataOnly, GainPolicy::kDataPlusModel}) {
    SCOPED_TRACE(policy == GainPolicy::kDataOnly ? "kDataOnly"
                                                 : "kDataPlusModel");
    std::vector<SeedPair> kernel;
    const uint64_t judged = ForEachSeedGain(
        idb, cm, policy, [&](LeafsetId x, LeafsetId y, double total) {
          kernel.push_back({CandidatePairKey(x, y), total});
        });
    EXPECT_EQ(judged, m < 2 ? 0 : m * (m - 1) / 2);
    // Row-major over ascending active ids: keys strictly ascend.
    for (size_t k = 1; k < kernel.size(); ++k) {
      ASSERT_LT(kernel[k - 1].key, kernel[k].key);
    }

    size_t next = 0;
    std::vector<uint64_t> oracle_accepts;
    std::vector<uint64_t> kernel_accepts;
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = i + 1; j < m; ++j) {
        const GainResult gr =
            ComputeMergeGain(idb, cm, actives[i], actives[j]);
        const uint64_t key = CandidatePairKey(actives[i], actives[j]);
        const bool reported = next < kernel.size() && kernel[next].key == key;
        ASSERT_EQ(gr.feasible, reported)
            << "pair (" << actives[i].value() << ", " << actives[j].value()
            << ")";
        if (!reported) continue;
        const double expected = gr.Total(policy);
        const double got = kernel[next++].total;
        ASSERT_EQ(std::memcmp(&expected, &got, sizeof(double)), 0)
            << "pair (" << actives[i].value() << ", " << actives[j].value()
            << "): pairwise " << expected << " vs kernel " << got;
        if (expected > threshold) oracle_accepts.push_back(key);
        if (got > threshold) kernel_accepts.push_back(key);
      }
    }
    EXPECT_EQ(next, kernel.size()) << "kernel reported a non-active pair";
    EXPECT_EQ(kernel_accepts, oracle_accepts);
    EXPECT_FALSE(kernel.empty()) << "input exercises no feasible pair";
  }
}

void ExpectSeedMatchesPairwise(const graph::AttributedGraph& g) {
  auto idb = InvertedDatabase::FromGraph(g);
  ASSERT_TRUE(idb.ok()) << idb.status().ToString();
  const CodeModel cm(g, *idb);
  ExpectSeedMatchesPairwise(*idb, cm);
}

TEST(SeedGainTest, PaperExample) {
  ExpectSeedMatchesPairwise(cspm::testing::PaperExampleGraph());
}

TEST(SeedGainTest, SmallPokec) {
  ExpectSeedMatchesPairwise(datasets::MakePokecLike(3, 300).value());
}

TEST(SeedGainTest, DblpLike) {
  ExpectSeedMatchesPairwise(datasets::MakeDblpLike(3, 1000).value());
}

TEST(SeedGainTest, AttributeLessAndIsolatedVertices) {
  graph::GraphBuilder b;
  const VertexId hub = b.AddVertex({"a", "b"});
  const VertexId bare = b.AddVertex({});  // no attributes, still a neighbour
  const VertexId v2 = b.AddVertex({"b", "c"});
  const VertexId v3 = b.AddVertex({"a", "c", "d"});
  const VertexId v4 = b.AddVertex({"c"});
  b.AddVertex({"e"});      // isolated: "e" is never a leaf, so inactive
  b.AddVertex({});         // isolated and attribute-less
  b.InternAttribute("f");  // carried by no vertex at all
  ASSERT_TRUE(b.AddEdge(hub, bare).ok());
  ASSERT_TRUE(b.AddEdge(hub, v2).ok());
  ASSERT_TRUE(b.AddEdge(hub, v3).ok());
  ASSERT_TRUE(b.AddEdge(bare, v4).ok());
  ASSERT_TRUE(b.AddEdge(v2, v3).ok());
  ASSERT_TRUE(b.AddEdge(v3, v4).ok());
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ExpectSeedMatchesPairwise(*g);
}

TEST(SeedGainTest, MultiValueCoresets) {
  // A SLIM-shaped cover: vertices carrying both of the two most frequent
  // attributes use one two-value coreset for them, singletons otherwise.
  const graph::AttributedGraph g = datasets::MakePokecLike(5, 300).value();
  const size_t num_attrs = g.num_attribute_values();
  AttrId top[2] = {AttrId(0), AttrId(0)};
  for (AttrId a(0); a.index() < num_attrs; ++a) {
    if (g.AttributeFrequency(a) > g.AttributeFrequency(top[0])) {
      top[1] = top[0];
      top[0] = a;
    } else if (a != top[0] &&
               g.AttributeFrequency(a) > g.AttributeFrequency(top[1])) {
      top[1] = a;
    }
  }
  ASSERT_NE(top[0], top[1]);
  std::vector<std::vector<AttrId>> coreset_values;
  for (AttrId a(0); a.index() < num_attrs; ++a) coreset_values.push_back({a});
  const CoreId pair_core(static_cast<uint32_t>(num_attrs));
  coreset_values.push_back(
      {std::min(top[0], top[1]), std::max(top[0], top[1])});
  std::vector<std::vector<CoreId>> vertex_coresets(g.num_vertices().index());
  size_t paired = 0;
  for (VertexId v(0); v < g.num_vertices(); ++v) {
    const bool both = g.HasAttribute(v, top[0]) && g.HasAttribute(v, top[1]);
    std::vector<CoreId>& cores = vertex_coresets[v.index()];
    for (AttrId a : g.Attributes(v)) {
      if (!both || (a != top[0] && a != top[1])) {
        cores.push_back(CoreId(a.value()));
      }
    }
    if (both) {
      cores.push_back(pair_core);  // the largest id: the list stays sorted
      ++paired;
    }
  }
  ASSERT_GT(paired, 0u);
  auto idb = InvertedDatabase::FromGraphWithCoresets(
      g, std::move(coreset_values), vertex_coresets);
  ASSERT_TRUE(idb.ok()) << idb.status().ToString();
  const CodeModel cm(g, *idb);
  ExpectSeedMatchesPairwise(*idb, cm);
}

TEST(SeedGainTest, PatchedPreMergeDatabaseWithNewAttributeValue) {
  const graph::AttributedGraph g = datasets::MakePokecLike(7, 300).value();
  graph::GraphDelta delta;
  delta.SetAttribute(VertexId(0), "brand-new-value");
  delta.SetAttribute(VertexId(17), "brand-new-value");
  // One new edge to the first vertex not yet adjacent to vertex 0.
  const auto nbrs = g.Neighbors(VertexId(0));
  VertexId w(1);
  while (std::find(nbrs.begin(), nbrs.end(), w) != nbrs.end()) ++w;
  delta.AddEdge(VertexId(0), w);
  auto applied = graph::ApplyDelta(g, delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  auto idb = InvertedDatabase::FromGraph(g);
  ASSERT_TRUE(idb.ok());
  DeltaPatchStats patch;
  ASSERT_TRUE(idb->ApplyDelta(g, applied->graph, applied->dirty_vertices,
                              &patch)
                  .ok());
  ASSERT_EQ(idb->num_coresets(), applied->graph.num_attribute_values());
  const CodeModel cm(applied->graph, *idb);
  ExpectSeedMatchesPairwise(*idb, cm);
}

TEST(SeedGainTest, ManyLeafsetsSpanSeveralRowBlocks) {
  // 1,100 attribute values give ~604k pairs, more than one row block of
  // the kernel holds, so blocks must hand over without losing a pair.
  constexpr uint32_t kValues = 1100;
  constexpr uint32_t kVertices = 3000;
  graph::GraphBuilder b;
  Rng rng(11);
  for (uint32_t v = 0; v < kVertices; ++v) {
    std::vector<std::string> attrs = {
        std::to_string(v < kValues ? v : rng.Uniform(kValues))};
    if (rng.Uniform(4) == 0) {
      const std::string extra = std::to_string(rng.Uniform(kValues));
      if (extra != attrs[0]) attrs.push_back(extra);
    }
    b.AddVertex(attrs);
  }
  for (uint32_t e = 0; e < 3 * kVertices; ++e) {
    const VertexId u(static_cast<uint32_t>(rng.Uniform(kVertices)));
    const VertexId w(static_cast<uint32_t>(rng.Uniform(kVertices)));
    if (u != w) {
      ASSERT_TRUE(b.AddEdge(u, w).ok());
    }
  }
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto idb = InvertedDatabase::FromGraph(*g);
  ASSERT_TRUE(idb.ok());
  const uint64_t m = idb->num_active_leafsets();
  ASSERT_GT(m * (m - 1) / 2, uint64_t{1} << 19);
  const CodeModel cm(*g, *idb);
  ExpectSeedMatchesPairwise(*idb, cm);
}

}  // namespace
}  // namespace cspm::core
