#include "sim/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "protocol/registry.h"
#include "topology/mesh2d4.h"

namespace wsn {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(TraceIo, PlanCsvListsEveryNodeWithRole) {
  const Mesh2D4 topo(16, 16);
  const auto plan = paper_plan(topo, topo.grid().to_id({6, 8}));

  std::ostringstream stream;
  write_plan_csv(stream, topo, plan);
  const auto lines = lines_of(stream.str());
  ASSERT_EQ(lines.size(), topo.num_nodes() + 1);
  EXPECT_EQ(lines[0], "node,x,y,z,role,offsets");
  std::size_t sources = 0;
  std::size_t relays = 0;
  std::size_t retransmitters = 0;
  for (const auto& line : lines) {
    if (line.find(",source,") != std::string::npos) ++sources;
    if (line.find(",relay,") != std::string::npos) ++relays;
    if (line.find(",retransmitter,") != std::string::npos) ++retransmitters;
  }
  EXPECT_EQ(sources, 1u);
  EXPECT_EQ(retransmitters, plan.retransmitters().size());
  EXPECT_EQ(relays + retransmitters + sources, plan.relay_count());
}

TEST(TraceIo, RetransmitterOffsetsPipeSeparated) {
  const Mesh2D4 topo(16, 16);
  const auto plan = paper_plan(topo, topo.grid().to_id({6, 8}));
  std::ostringstream stream;
  write_plan_csv(stream, topo, plan);
  EXPECT_NE(stream.str().find(",retransmitter,1|2"), std::string::npos);
}

}  // namespace
}  // namespace wsn
