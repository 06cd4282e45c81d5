#pragma once

/// \file procrustes.hpp
/// Rigid (orthogonal) Procrustes alignment of two 3D point sets.
///
/// MDS recovers coordinates only up to translation, rotation, and
/// reflection, so validating localization quality requires factoring that
/// gauge freedom out. `procrustes_align` finds the orthogonal transform +
/// translation minimizing the RMS error between `source` and `target`.

#include <array>
#include <vector>

#include "geom/vec3.hpp"

namespace ballfit::linalg {

struct ProcrustesResult {
  /// Aligned copy of the source points.
  std::vector<geom::Vec3> aligned;
  /// Root-mean-square error after alignment.
  double rms_error = 0.0;
  /// True if the optimal transform includes a reflection.
  bool reflected = false;

  /// The transform itself: p ↦ rotation·(p − source_centroid) +
  /// target_centroid. Exposed so callers can map points that were not part
  /// of the alignment set.
  std::array<std::array<double, 3>, 3> rotation{};
  geom::Vec3 source_centroid{};
  geom::Vec3 target_centroid{};

  /// Applies the recovered transform to an arbitrary point.
  geom::Vec3 apply(const geom::Vec3& p) const {
    const geom::Vec3 q = p - source_centroid;
    return geom::Vec3{
               rotation[0][0] * q.x + rotation[0][1] * q.y +
                   rotation[0][2] * q.z,
               rotation[1][0] * q.x + rotation[1][1] * q.y +
                   rotation[1][2] * q.z,
               rotation[2][0] * q.x + rotation[2][1] * q.y +
                   rotation[2][2] * q.z} +
           target_centroid;
  }
};

/// Aligns `source` onto `target` (same length, >= 1 point). Reflections are
/// allowed, matching the ambiguity of distance-only localization.
ProcrustesResult procrustes_align(const std::vector<geom::Vec3>& source,
                                  const std::vector<geom::Vec3>& target);

}  // namespace ballfit::linalg
