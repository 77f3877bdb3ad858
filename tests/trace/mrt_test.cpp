#include "trace/mrt.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "wire/codec.h"

namespace abrr::trace {
namespace {

class MrtTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs every case as its own process, possibly in parallel: a
    // shared file name would let one case's TearDown delete another's
    // file. Name it after the test and the process.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = ::testing::TempDir() + "abrr_mrt_" + info->name() + "_" +
           std::to_string(::getpid()) + ".bin";
    sim::Rng rng{7};
    topo::TopologyParams tp;
    tp.pops = 4;
    tp.clients_per_pop = 4;
    tp.peer_ases = 5;
    tp.peering_points_per_as = 2;
    topo = topo::make_tier1(tp, rng);
    WorkloadParams wp;
    wp.prefixes = 200;
    workload = Workload::generate(wp, topo, rng);
    TraceParams trp;
    trp.duration = sim::sec(60);
    trp.events_per_second = 5;
    trace = UpdateTrace::generate(trp, workload, rng);
  }
  void TearDown() override { std::remove(path.c_str()); }

  std::string path;
  topo::Topology topo;
  Workload workload;
  UpdateTrace trace;
};

TEST_F(MrtTest, RoundTripsSnapshotExactly) {
  write_mrt(path, workload, trace);
  const MrtFile file = read_mrt(path);

  ASSERT_EQ(file.workload.table().size(), workload.table().size());
  for (std::size_t i = 0; i < workload.table().size(); ++i) {
    const auto& a = workload.table()[i];
    const auto& b = file.workload.table()[i];
    ASSERT_EQ(a.prefix, b.prefix);
    ASSERT_EQ(a.from_peers, b.from_peers);
    ASSERT_EQ(a.anns.size(), b.anns.size());
    for (std::size_t k = 0; k < a.anns.size(); ++k) {
      EXPECT_EQ(a.anns[k].router, b.anns[k].router);
      EXPECT_EQ(a.anns[k].neighbor, b.anns[k].neighbor);
      EXPECT_EQ(a.anns[k].first_as, b.anns[k].first_as);
      EXPECT_EQ(a.anns[k].origin_as, b.anns[k].origin_as);
      EXPECT_EQ(a.anns[k].path_length, b.anns[k].path_length);
      EXPECT_EQ(a.anns[k].med, b.anns[k].med);
      EXPECT_EQ(a.anns[k].local_pref, b.anns[k].local_pref);
    }
  }
  EXPECT_EQ(file.workload.params().prefixes, workload.params().prefixes);
  EXPECT_DOUBLE_EQ(file.workload.params().path_tie_prob,
                   workload.params().path_tie_prob);
}

TEST_F(MrtTest, RoundTripsTraceExactly) {
  write_mrt(path, workload, trace);
  const MrtFile file = read_mrt(path);
  ASSERT_EQ(file.trace.events().size(), trace.events().size());
  EXPECT_EQ(file.trace.duration(), trace.duration());
  for (std::size_t i = 0; i < trace.events().size(); ++i) {
    EXPECT_EQ(file.trace.events()[i].at, trace.events()[i].at);
    EXPECT_EQ(file.trace.events()[i].kind, trace.events()[i].kind);
    EXPECT_EQ(file.trace.events()[i].prefix_idx, trace.events()[i].prefix_idx);
    EXPECT_EQ(file.trace.events()[i].peer_as, trace.events()[i].peer_as);
  }
}

// ABMRT v2 stores each announcement's attributes as the wire codec's
// RFC 4271 path-attribute block — there is exactly one attribute
// parser in the repo. This pins the unification: the scalar projections
// the workload consumes must equal what the wire decoder extracts from
// the block the wire encoder produced, for every announcement. Any
// drift between trace-plane and message-plane attribute handling shows
// up here before it shows up as a divergent experiment.
TEST_F(MrtTest, AttributeBlocksMatchWireCodecExactly) {
  write_mrt(path, workload, trace);
  const MrtFile file = read_mrt(path);

  std::vector<std::uint8_t> block;
  for (std::size_t i = 0; i < workload.table().size(); ++i) {
    const auto& entry = workload.table()[i];
    for (std::size_t k = 0; k < entry.anns.size(); ++k) {
      const auto& a = entry.anns[k];
      block.clear();
      wire::Encoder::append_path_attrs(*a.to_route(entry.prefix).attrs,
                                       block);
      ASSERT_FALSE(block.empty());
      ASSERT_EQ(block.size(), bgp::encoded_attrs_size(
                                  *a.to_route(entry.prefix).attrs));

      bgp::PathAttrs decoded;
      const auto err = wire::decode_path_attrs(
          std::span<const std::uint8_t>{block}, decoded,
          /*require_mandatory=*/true);
      ASSERT_FALSE(err.has_value()) << err->to_string();

      // The projections read_mrt derives from the block must equal the
      // ones that came through the file (and the originals).
      const auto& b = file.workload.table()[i].anns[k];
      EXPECT_EQ(decoded.next_hop, b.router);
      EXPECT_EQ(decoded.as_path.first(), b.first_as);
      EXPECT_EQ(decoded.as_path.length(), b.path_length);
      EXPECT_EQ(decoded.med, b.med);
      EXPECT_EQ(decoded.local_pref, b.local_pref);
    }
  }
}

TEST_F(MrtTest, EmptyTraceIsFine) {
  write_mrt(path, workload, UpdateTrace{});
  const MrtFile file = read_mrt(path);
  EXPECT_TRUE(file.trace.events().empty());
  EXPECT_EQ(file.workload.table().size(), workload.table().size());
}

TEST_F(MrtTest, RejectsMissingFile) {
  EXPECT_THROW(read_mrt(path + ".does-not-exist"), std::runtime_error);
}

TEST_F(MrtTest, RejectsBadMagic) {
  std::ofstream out{path, std::ios::binary};
  out << "NOT-AN-MRT-FILE-AT-ALL";
  out.close();
  EXPECT_THROW(read_mrt(path), std::runtime_error);
}

TEST_F(MrtTest, RejectsTruncation) {
  write_mrt(path, workload, trace);
  // Chop the file in half.
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::string data(size / 2, '\0');
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  in.close();
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  EXPECT_THROW(read_mrt(path), std::runtime_error);
}

}  // namespace
}  // namespace abrr::trace
