#pragma once

/// \file sampling.hpp
/// Uniform random sampling primitives used by the network generators.

#include "common/rng.hpp"
#include "geom/aabb.hpp"
#include "geom/vec3.hpp"

namespace ballfit::geom {

/// Uniform point inside an axis-aligned box.
Vec3 sample_in_box(Rng& rng, const Aabb& box);

/// Uniform point on the unit sphere (Marsaglia 1972).
Vec3 sample_on_unit_sphere(Rng& rng);

/// Uniform point on a sphere of radius `r` centered at `c`.
Vec3 sample_on_sphere(Rng& rng, const Vec3& c, double r);

/// Uniform point inside a ball of radius `r` centered at `c`.
Vec3 sample_in_ball(Rng& rng, const Vec3& c, double r);

/// Uniform point on triangle (a,b,c) via the square-root parameterization.
Vec3 sample_on_triangle(Rng& rng, const Vec3& a, const Vec3& b, const Vec3& c);

}  // namespace ballfit::geom
