#pragma once

/// \file surface_builder.hpp
/// Triangular boundary surface construction (paper Sec. III, steps I–V).
///
/// Per identified boundary (one group from `core::group_boundaries`):
///   I.   k-hop landmark election (localized MIS protocol).
///   II.  Combinatorial Delaunay Graph: landmarks whose Voronoi cells touch.
///   III. Combinatorial Delaunay Map: keep a CDG edge only when the
///        shortest boundary path between the landmarks visits their two
///        cells only, without interleaving — the planarization witness
///        of Funke & Milosavljević adopted by the paper.
///   IV.  Triangulation completion: add remaining CDG edges whose witness
///        paths avoid nodes already claimed by connected pairs (no
///        crossings).
///   V.   Edge flip: edges with three (or more) triangular faces are
///        removed and replaced by the shortest apex chain, restoring the
///        local 2-manifold property.
///
/// Everything is connectivity-driven; positions are carried only for
/// export and evaluation. Steps III–V search with one reused
/// `net::BoundedBfs` restricted to the group (or to two Voronoi cells), so
/// a group costs what its own nodes cost, not the network's size; each
/// step is traced as a span `step1_landmarks` … `step5_flip`. Step I's
/// election floods run on `MeshConfig::threads` workers; the rest of a
/// group's construction is serial.

#include <cstdint>
#include <vector>

#include "core/grouping.hpp"
#include "mesh/trimesh.hpp"
#include "net/network.hpp"

namespace ballfit::mesh {

struct MeshConfig {
  /// k: minimum hop separation between landmarks; 3–5 in the paper — the
  /// knob trading mesh fineness against cost (Sec. III step I).
  std::uint32_t landmark_spacing = 3;
  /// Skip boundaries with fewer nodes than this (degenerate fragments that
  /// survived IFF cannot carry a closed surface anyway).
  std::size_t min_group_size = 4;
  /// Worker threads for the Step I election floods (count; default 0 =
  /// hardware concurrency). Every surface is the same at any count.
  unsigned threads = 0;
};

/// One reconstructed boundary surface.
struct BoundarySurface {
  net::NodeId group_leader = net::kInvalidNode;
  std::vector<net::NodeId> landmarks;
  /// Voronoi owner (landmark id) for every node of this group's boundary;
  /// nodes outside the group hold kInvalidNode.
  std::vector<net::NodeId> voronoi_owner;
  TriMesh mesh;

  /// Stage diagnostics.
  std::size_t cdg_edges = 0;      ///< step II pairs
  std::size_t cdm_edges = 0;      ///< survived step III
  std::size_t added_edges = 0;    ///< added in step IV
  std::size_t flips = 0;          ///< step V transformations
};

struct SurfaceResult {
  std::vector<BoundarySurface> surfaces;
};

/// Builds one triangular mesh per boundary group. Throws InvalidArgument
/// when a group member is out of range or not flagged in `boundary`.
SurfaceResult build_surfaces(const net::Network& network,
                             const std::vector<bool>& boundary,
                             const core::BoundaryGroups& groups,
                             const MeshConfig& config = {});

}  // namespace ballfit::mesh
