#include "geom/sampling.hpp"

#include <cmath>

namespace ballfit::geom {

Vec3 sample_in_box(Rng& rng, const Aabb& box) {
  return {rng.uniform(box.min.x, box.max.x), rng.uniform(box.min.y, box.max.y),
          rng.uniform(box.min.z, box.max.z)};
}

Vec3 sample_on_unit_sphere(Rng& rng) {
  // Marsaglia (1972): uniform on S² without trig.
  double u, v, s;
  do {
    u = rng.uniform(-1.0, 1.0);
    v = rng.uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0);
  const double factor = 2.0 * std::sqrt(1.0 - s);
  return {u * factor, v * factor, 1.0 - 2.0 * s};
}

Vec3 sample_on_sphere(Rng& rng, const Vec3& c, double r) {
  return c + sample_on_unit_sphere(rng) * r;
}

Vec3 sample_in_ball(Rng& rng, const Vec3& c, double r) {
  // Rejection from the bounding cube: acceptance ≈ 52%, still cheap.
  for (;;) {
    Vec3 p{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
           rng.uniform(-1.0, 1.0)};
    if (p.norm_sq() <= 1.0) return c + p * r;
  }
}

Vec3 sample_on_triangle(Rng& rng, const Vec3& a, const Vec3& b,
                        const Vec3& c) {
  const double su = std::sqrt(rng.uniform());
  const double v = rng.uniform();
  return a * (1.0 - su) + b * (su * (1.0 - v)) + c * (su * v);
}

}  // namespace ballfit::geom
