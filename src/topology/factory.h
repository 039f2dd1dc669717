#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "topology/topology.h"

/// Construction helpers shared by the examples, tests and bench harness.
namespace wsn {

/// The paper's evaluation configuration (§4): 512 nodes as a 32×16 2D mesh
/// or an 8×8×8 3D mesh, 0.5 m spacing, 512-bit packets.
struct PaperConfig {
  static constexpr int kMesh2dM = 32;
  static constexpr int kMesh2dN = 16;
  static constexpr int kMesh3d = 8;
  static constexpr Meters kSpacing = 0.5;
  static constexpr std::size_t kPacketBits = 512;
  static constexpr std::size_t kNumNodes = 512;
};

/// The four regular families, in the paper's table order.
[[nodiscard]] const std::vector<std::string>& regular_families();

/// True when `family` names one of `regular_families()`: the one check a
/// caller makes before `make_mesh`/`make_paper_topology` on untrusted input.
[[nodiscard]] bool is_regular_family(std::string_view family);

/// Builds the paper-sized instance of `family` ("2D-3", "2D-4", "2D-8",
/// "3D-6").  Aborts on an unknown family (programming error).
[[nodiscard]] std::unique_ptr<Topology> make_paper_topology(
    std::string_view family);

/// Builds a custom-size instance: 2D families use m×n; "3D-6" uses m×n×l.
[[nodiscard]] std::unique_ptr<Topology> make_mesh(std::string_view family,
                                                  int m, int n, int l = 1,
                                                  Meters spacing = 0.5);

}  // namespace wsn
