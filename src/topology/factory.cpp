#include "topology/factory.h"

#include <algorithm>

#include "common/assert.h"
#include "topology/mesh2d3.h"
#include "topology/mesh2d4.h"
#include "topology/mesh2d8.h"
#include "topology/mesh3d6.h"

namespace wsn {

const std::vector<std::string>& regular_families() {
  static const std::vector<std::string> kFamilies = {"2D-3", "2D-4", "2D-8",
                                                     "3D-6"};
  return kFamilies;
}

bool is_regular_family(std::string_view family) {
  const std::vector<std::string>& families = regular_families();
  return std::find(families.begin(), families.end(), family) !=
         families.end();
}

std::unique_ptr<Topology> make_paper_topology(std::string_view family) {
  if (family == "3D-6") {
    return make_mesh(family, PaperConfig::kMesh3d, PaperConfig::kMesh3d,
                     PaperConfig::kMesh3d, PaperConfig::kSpacing);
  }
  return make_mesh(family, PaperConfig::kMesh2dM, PaperConfig::kMesh2dN, 1,
                   PaperConfig::kSpacing);
}

std::unique_ptr<Topology> make_mesh(std::string_view family, int m, int n,
                                    int l, Meters spacing) {
  if (family == "2D-3") return std::make_unique<Mesh2D3>(m, n, spacing);
  if (family == "2D-4") return std::make_unique<Mesh2D4>(m, n, spacing);
  if (family == "2D-8") return std::make_unique<Mesh2D8>(m, n, spacing);
  if (family == "3D-6") return std::make_unique<Mesh3D6>(m, n, l, spacing);
  WSN_EXPECTS(false && "unknown topology family");
  return nullptr;
}

}  // namespace wsn
