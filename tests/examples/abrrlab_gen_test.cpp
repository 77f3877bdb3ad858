// abrrlab gen draws the topology, then the workload, from one
// Rng{seed}, as runner::build_world does: the file it writes holds the
// workload every trial of that (spec, seed) loads.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "runner/trial.h"
#include "trace/mrt.h"

namespace abrr {
namespace {

TEST(AbrrlabGen, WritesTheWorkloadBuildWorldGenerates) {
  constexpr std::uint64_t kSeed = 5;
  const std::string path =
      std::string{ABRRLAB_TEST_DIR} + "/abrrlab_gen_test.mrt";
  const std::string command = std::string{ABRRLAB_BIN} + " gen --out=" +
                              path +
                              " --prefixes=80 --pops=4 --seed=5"
                              " --trace-seconds=5 > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
  const trace::MrtFile file = trace::read_mrt(path);

  runner::ScenarioSpec spec;
  spec.topology.pops = 4;
  spec.workload.prefixes = 80;
  const runner::World world = runner::build_world(spec, kSeed);

  const auto& want = world.workload().table();
  const auto& got = file.workload.table();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].prefix, want[i].prefix);
    EXPECT_EQ(got[i].from_peers, want[i].from_peers);
    ASSERT_EQ(got[i].anns.size(), want[i].anns.size());
    for (std::size_t k = 0; k < want[i].anns.size(); ++k) {
      const trace::Announcement& a = got[i].anns[k];
      const trace::Announcement& b = want[i].anns[k];
      EXPECT_EQ(a.router, b.router);
      EXPECT_EQ(a.neighbor, b.neighbor);
      EXPECT_EQ(a.first_as, b.first_as);
      EXPECT_EQ(a.origin_as, b.origin_as);
      EXPECT_EQ(a.path_length, b.path_length);
      EXPECT_EQ(a.med, b.med);
      EXPECT_EQ(a.local_pref, b.local_pref);
    }
  }
}

}  // namespace
}  // namespace abrr
