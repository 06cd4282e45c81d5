#include "core/ubf.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/assert.hpp"
#include "common/epoch_map.hpp"
#include "common/parallel.hpp"
#include "geom/candidate_cache.hpp"
#include "geom/trisphere.hpp"
#include "net/graph.hpp"
#include "obs/trace.hpp"

namespace ballfit::core {

using geom::Vec3;
using net::NodeId;

double vote_confidence(std::size_t votes, std::size_t threshold) {
  if (threshold == 0) return votes > 0 ? 1.0 : 0.0;
  return static_cast<double>(votes) /
         static_cast<double>(votes + threshold);
}

double certificate_margin(double radius, const Vec3& self) {
  const double magnitude =
      std::max({std::abs(self.x), std::abs(self.y), std::abs(self.z)});
  return 1e-2 * radius + 1e-12 * magnitude;
}

void validate(const UbfConfig& config) {
  // A negative epsilon would shrink the ball below the radio range, where
  // every node is a boundary node (Definition 4 requires r >= 1), and a
  // non-finite one would reach the certificate and the emptiness scan.
  BALLFIT_REQUIRE(std::isfinite(config.epsilon) && config.epsilon >= 0.0,
                  "epsilon must be finite and non-negative");
  // A non-negative hint keeps the stress gate open at zero uncertainty,
  // which the true-coordinates path relies on.
  BALLFIT_REQUIRE(std::isfinite(config.measurement_error_hint) &&
                      config.measurement_error_hint >= 0.0,
                  "measurement_error_hint must be finite and non-negative");
  // A negative factor would widen the strict-inside limit past r, and a
  // non-finite one would apply the cap even at zero uncertainty.
  BALLFIT_REQUIRE(std::isfinite(config.noise_margin_factor) &&
                      config.noise_margin_factor >= 0.0,
                  "noise_margin_factor must be finite and non-negative");
  // At 0 every node would meet the threshold, yet the test stops at its
  // first empty ball: the flag would depend on whether the vote margin
  // (confidence) is counted.
  BALLFIT_REQUIRE(config.min_empty_balls >= 1,
                  "min_empty_balls must be at least 1");
}

bool degenerate_view(const net::Network& network, NodeId i,
                     const std::vector<localization::LocalFrame>* frames,
                     const std::vector<char>* alive) {
  if (frames != nullptr) return !(*frames)[i].ok;
  std::size_t members = 1;
  for (const NodeId v : network.neighbors(i)) {
    if (alive == nullptr || (*alive)[v] != 0) ++members;
  }
  return members < kMinBallTestMembers;
}

UnitBallFitting::UnitBallFitting(const net::Network& network, UbfConfig config)
    : network_(&network),
      config_(config),
      radius_((1.0 + config.epsilon) * network.radio_range()) {
  validate(config_);
}

bool UnitBallFitting::frame_reliable(double stress_rms) const {
  const double noise_floor =
      config_.measurement_error_hint / std::sqrt(3.0) + kStressGateFloor;
  return stress_rms <=
         kStressGateFactor * noise_floor * network_->radio_range();
}

UnitBallFitting::InsideLimits UnitBallFitting::inside_limits(
    double coord_uncertainty) const {
  // Per-node slack against coordinate jitter: σ from the caller (embedding
  // residual) or, as a fallback, from the nominal ranging spec
  // (Uniform(−e,e) has σ = e/√3).
  const double sigma =
      coord_uncertainty >= 0.0
          ? coord_uncertainty
          : config_.measurement_error_hint * network_->radio_range() /
                std::sqrt(3.0);
  const double noise_margin =
      std::min(kNoiseMarginCap * network_->radio_range(),
               config_.noise_margin_factor * sigma);
  const double one_hop =
      std::max(0.0, radius_ - kInsideTolerance - noise_margin);
  const double two_hop =
      std::max(0.0, one_hop - kTwoHopInsideMargin * network_->radio_range());
  return {one_hop * one_hop, two_hop * two_hop};
}

namespace {

/// Is the ball at `center` empty of all members except the defining triple?
/// The naive full scan — kept for the witness-side check, which evaluates
/// only a handful of balls per frame and would not amortize a cache build.
bool ball_is_empty(const std::vector<Vec3>& coords, const Vec3& center,
                   std::size_t skip_a, std::size_t skip_b, std::size_t skip_c,
                   std::size_t witness_count, double one_hop_limit_sq,
                   double two_hop_limit_sq) {
  for (std::size_t u = 0; u < coords.size(); ++u) {
    if (u == skip_a || u == skip_b || u == skip_c) continue;
    const double limit_sq =
        u < witness_count ? one_hop_limit_sq : two_hop_limit_sq;
    if (coords[u].distance_sq_to(center) < limit_sq) return false;
  }
  return true;
}

/// One spherical cell of the interior certificate: its center direction e
/// (unit) and its chord, an upper bound on |d − e| over every unit
/// direction d in the cell.
struct CoverCell {
  Vec3 center;
  double chord;
};

/// Levels of the cell table. Level l of the subdivision has 20·4^l cells;
/// the certificate starts from the 80 level-1 cells (the 20 faces
/// themselves are too coarse to be covered by one member) and splits down
/// to the 1,280 level-3 cells. The table holds levels 1–3: 1,680 cells,
/// 52.5 KiB.
constexpr int kCoverRoot = 1;
constexpr int kCoverLeaf = 3;

/// Index of the first level-`level` cell in the level-major table.
constexpr std::size_t cover_level_offset(int level) {
  return 20 * ((std::size_t{1} << (2 * level)) -
               (std::size_t{1} << (2 * kCoverRoot))) /
         3;
}

struct CoverTable {
  std::vector<CoverCell> cells;
  double leaf_chord = 0.0;  // largest chord of a leaf cell
};

/// The certificate's cells, built once and shared read-only by every
/// worker: the icosahedron's 20 faces on the unit sphere, each split 1:4
/// at its normalized edge midpoints, recursively. The children of the
/// level-l cell with in-level index c are the level-(l+1) cells 4c … 4c+3,
/// and together they tile it. A cell's chord is its largest
/// center-to-vertex distance: for a unit d = v/|v| with v a convex
/// combination of the vertices, d·e >= v·e >= min over vertices of v_i·e,
/// so no point of the cell is farther from e than some vertex. The chord
/// is padded by 1e-9 to absorb the rounding of the computed vertices (the
/// slivers between a parent and its computed children are ~1e-16 wide).
const CoverTable& cover_table() {
  static const CoverTable table = [] {
    const double phi = (1.0 + std::sqrt(5.0)) / 2.0;
    std::vector<Vec3> v;
    for (const double a : {-1.0, 1.0}) {
      for (const double b : {-phi, phi}) {
        v.push_back(Vec3{0.0, a, b}.normalized());
        v.push_back(Vec3{a, b, 0.0}.normalized());
        v.push_back(Vec3{b, 0.0, a}.normalized());
      }
    }
    CoverTable out;
    out.cells.resize(cover_level_offset(kCoverLeaf + 1));
    const auto fill = [&](const auto& self, int level, std::size_t index,
                          const Vec3& a, const Vec3& b,
                          const Vec3& c) -> void {
      if (level >= kCoverRoot) {
        const Vec3 e = (a + b + c).normalized();
        const double chord =
            std::max({a.distance_to(e), b.distance_to(e), c.distance_to(e)}) +
            1e-9;
        out.cells[cover_level_offset(level) + index] = {e, chord};
        if (level == kCoverLeaf) {
          out.leaf_chord = std::max(out.leaf_chord, chord);
          return;
        }
      }
      const Vec3 ab = (a + b).normalized();
      const Vec3 bc = (b + c).normalized();
      const Vec3 ca = (c + a).normalized();
      self(self, level + 1, 4 * index + 0, a, ab, ca);
      self(self, level + 1, 4 * index + 1, ab, b, bc);
      self(self, level + 1, 4 * index + 2, ca, bc, c);
      self(self, level + 1, 4 * index + 3, ab, bc, ca);
    };
    // The faces are the vertex triples at mutual edge distance: the edge
    // of the unit icosahedron is 1.05, the next distance 1.70.
    std::size_t face = 0;
    const auto adjacent = [&](std::size_t i, std::size_t j) {
      return v[i].distance_sq_to(v[j]) < 2.0;
    };
    for (std::size_t i = 0; i < v.size(); ++i) {
      for (std::size_t j = i + 1; j < v.size(); ++j) {
        for (std::size_t k = j + 1; k < v.size(); ++k) {
          if (adjacent(i, j) && adjacent(j, k) && adjacent(i, k)) {
            fill(fill, 0, face++, v[i], v[j], v[k]);
          }
        }
      }
    }
    BALLFIT_ASSERT(face == 20);
    return out;
  }();
  return table;
}

/// A member the certificate may use: its position relative to the node
/// under test and its reach, the blocking radius less the margin δ.
struct CoverMember {
  Vec3 rel;
  double reach;
};

/// Octant of a direction: bit 0 is x >= 0, bit 1 y >= 0, bit 2 z >= 0.
unsigned octant_of(const Vec3& v) {
  return (v.x >= 0.0 ? 1u : 0u) | (v.y >= 0.0 ? 2u : 0u) |
         (v.z >= 0.0 ? 4u : 0u);
}

/// The interior certificate (see `test_view`): is every point of
/// S(self, r) covered by the members (those below the witness count at the
/// one-hop limit, the rest at the two-hop limit), so that no candidate ball
/// can be empty? The sphere is searched depth-first over the cells of
/// `cover_table`: a cell some member covers is settled, an uncovered cell
/// is split 1:4, and an uncovered leaf fails the search. Which members it
/// tries, and in what order, only decides how soon it finds a cover;
/// soundness rests on the per-cell test alone. Every call adds the cell
/// checks it performs to `checks`.
class CoverSearch {
 public:
  /// A fresh search with the one-hop members of `coords` (those below the
  /// witness count, all but `self_index`); true when they cover the sphere.
  bool start(const std::vector<Vec3>& coords, std::size_t self_index,
             std::size_t witness_count, double r,
             const UnitBallFitting::InsideLimits& limits,
             std::size_t& checks) {
    self_ = coords[self_index];
    self_index_ = self_index;
    witness_count_ = witness_count;
    r_ = r;
    const double delta = certificate_margin(r, self_);
    reach_one_ = std::sqrt(limits.one_hop_sq) - delta;
    reach_two_ = std::sqrt(limits.two_hop_sq) - delta;
    // |p − u| >= | |u − self| − r | for every p on the sphere, so a member
    // whose distance to self is outside (r − a, r + a), a = reach − (the
    // finest chord), covers no cell at any level. A non-finite member
    // fails the test too.
    const double finest = r * cover_table().leaf_chord;
    const auto band = [&](double reach, double& lo_sq, double& hi_sq) {
      const double a = reach - finest;
      lo_sq = r > a ? (r - a) * (r - a) : -1.0;
      hi_sq = a > 0.0 ? (r + a) * (r + a) : -1.0;
    };
    band(reach_one_, lo_one_, hi_one_);
    band(reach_two_, lo_two_, hi_two_);
    for (std::vector<CoverMember>& o : octants_) o.clear();
    const Vec3 mass = add_members(coords, 0, witness_count);

    // An uncovered region, if any, most likely faces away from the
    // members' mass: those roots go on the stack last, so they pop first.
    const CoverTable& table = cover_table();
    const unsigned away = octant_of(-mass);
    top_ = 0;
    for (const bool first : {false, true}) {
      for (std::uint32_t c = kRoots; c-- > 0;) {
        const CoverCell& root =
            table.cells[cover_level_offset(kCoverRoot) + c];
        if ((octant_of(root.center) == away) == first) {
          stack_[top_++] = {kCoverRoot, c};
        }
      }
    }
    return search(checks);
  }

  /// Continues the last `start`, which must have failed, with the members
  /// of `coords` from the witness count on (the emptiness-only members,
  /// which `coords` may have gained since). Returns exactly what a search
  /// over every member of `coords` would.
  ///
  /// The failed search left the leaf it failed on, that leaf's ancestors
  /// (split, none covered by an old member) and, on the stack, the untried
  /// cells: the remaining roots and the remaining children of those
  /// ancestors. Every other cell it settled stays settled with more
  /// members. A fresh search would first test each ancestor against every
  /// member; the old ones fail it, so only the new ones are tried there,
  /// outermost ancestor first, and one that covers an ancestor settles the
  /// ancestor's untried children with it. Failing that, the new members
  /// must cover the failed leaf itself. The untried cells then run against
  /// all members.
  bool resume(const std::vector<Vec3>& coords, std::size_t& checks) {
    BALLFIT_ASSERT(failed_.level == kCoverLeaf);
    std::array<std::size_t, 8> old;
    for (unsigned o = 0; o < 8; ++o) old[o] = octants_[o].size();
    add_members(coords, witness_count_, coords.size());
    const Pending leaf = failed_;
    failed_ = {};
    bool settled = false;
    for (int level = kCoverRoot; level < kCoverLeaf && !settled; ++level) {
      const Pending ancestor{
          level, leaf.index >> (2 * (kCoverLeaf - level))};
      if (cover_of(probe(ancestor), old, checks) != nullptr) {
        // The stack holds the roots, then the ancestors' children by
        // level: those below `level` are this ancestor's.
        while (top_ > 0 && stack_[top_ - 1].level > level) --top_;
        settled = true;
      }
    }
    if (!settled && cover_of(probe(leaf), old, checks) == nullptr) {
      failed_ = leaf;
      return false;
    }
    return search(checks);
  }

 private:
  struct Pending {
    int level = 0;
    std::uint32_t index = 0;  // within its level
  };
  /// A cell's center point on S(self, r), its spread r·chord and the
  /// octant of its center.
  struct Probe {
    Vec3 point;
    double spread;
    unsigned home;
  };
  static constexpr std::uint32_t kRoots = 20u << (2 * kCoverRoot);

  Probe probe(const Pending& cell) const {
    const CoverCell& c =
        cover_table().cells[cover_level_offset(cell.level) + cell.index];
    return {c.center * r_, r_ * c.chord, octant_of(c.center)};
  }

  static bool covers(const Probe& cell, const CoverMember& m,
                     std::size_t& checks) {
    ++checks;
    const double t = m.reach - cell.spread;
    return t > 0.0 && cell.point.distance_sq_to(m.rel) < t * t;
  }

  /// Files the members `coords[from, to)` that can cover some cell by
  /// octant; returns the sum of their offsets from self.
  Vec3 add_members(const std::vector<Vec3>& coords, std::size_t from,
                   std::size_t to) {
    Vec3 mass;
    for (std::size_t u = from; u < to; ++u) {
      if (u == self_index_) continue;
      const bool one = u < witness_count_;
      const Vec3 rel = coords[u] - self_;
      const double d2 = rel.norm_sq();
      if (d2 > (one ? lo_one_ : lo_two_) && d2 < (one ? hi_one_ : hi_two_)) {
        octants_[octant_of(rel)].push_back(
            {rel, one ? reach_one_ : reach_two_});
        mass += rel;
      }
    }
    return mass;
  }

  /// The first member that covers `cell`, from the `from[o]`-th of each
  /// octant o's list on, or nullptr. Octants nearest the cell first. A
  /// member 90° or more away from the cell's center is at least r from
  /// the cell's center point, and every reach is below r, so the opposite
  /// octant is skipped.
  const CoverMember* cover_of(const Probe& cell,
                              const std::array<std::size_t, 8>& from,
                              std::size_t& checks) const {
    for (const unsigned flip : {0u, 1u, 2u, 4u, 3u, 5u, 6u}) {
      const unsigned o = cell.home ^ flip;
      const std::vector<CoverMember>& list = octants_[o];
      for (std::size_t m = from[o]; m < list.size(); ++m) {
        if (covers(cell, list[m], checks)) return &list[m];
      }
    }
    return nullptr;
  }

  /// Runs the depth-first search from the cells on the stack, which holds
  /// at most the roots plus three siblings per level below. On failure
  /// the stack and `failed_` keep what `resume` needs.
  bool search(std::size_t& checks) {
    static constexpr std::array<std::size_t, 8> kAll{};
    const CoverMember* memo = nullptr;  // the last member that covered
    while (top_ > 0) {
      const Pending cell = stack_[--top_];
      const Probe p = probe(cell);
      if (memo != nullptr && covers(p, *memo, checks)) continue;
      if (const CoverMember* found = cover_of(p, kAll, checks)) {
        memo = found;
        continue;
      }
      if (cell.level == kCoverLeaf) {
        failed_ = cell;
        return false;
      }
      for (std::uint32_t child = 4; child-- > 0;) {
        stack_[top_++] = {cell.level + 1, 4 * cell.index + child};
      }
    }
    return true;
  }

  Vec3 self_;
  std::size_t self_index_ = 0;
  std::size_t witness_count_ = 0;
  double r_ = 0.0;
  double reach_one_ = 0.0, reach_two_ = 0.0;
  double lo_one_ = 0.0, hi_one_ = 0.0, lo_two_ = 0.0, hi_two_ = 0.0;
  std::array<std::vector<CoverMember>, 8> octants_;  // by octant of rel
  std::array<Pending, kRoots + 3 * (kCoverLeaf - kCoverRoot)> stack_;
  std::size_t top_ = 0;
  Pending failed_;  // the leaf the last search failed on, if it did
};

/// Per-thread scratch arena, reused across every node a worker processes.
/// Holds the sorted candidate cache, the per-slot emptiness thresholds
/// (structure-of-arrays buffers), the certificate's search, the collected
/// pairs of the frame driver, and the gather buffers of the
/// true-coordinates view. Steady state performs no allocations; contents
/// never influence results (everything is rebuilt per node, and a resumed
/// certificate decides what a fresh one would), so detection output is
/// independent of how nodes are distributed over threads.
struct UbfScratch {
  geom::CandidateCache cache;
  std::vector<double> lim_sq;  // per-slot threshold; < 0 disables
  CoverSearch cover;           // the interior certificate
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // frame driver
  std::vector<Vec3> gather;  // true-coordinates view: member coordinates
  EpochSlotMap seen;         // true-coordinates view: membership dedup
};

UbfScratch& local_scratch() {
  static thread_local UbfScratch scratch;
  return scratch;
}

/// The Algorithm 1 pair sweep of `test_view`, run once the interior
/// certificate has failed. Enumerates empty candidate balls in exactly the
/// order the naive double loop finds them; its shortcuts (pair pruning,
/// nearest-first scans with a cutoff, blocker memoization, witness
/// masking) are described, with their soundness, at `test_view`.
class BallSweep {
 public:
  /// What the `on_empty(j, k)` callback tells the sweep to do next.
  enum class Step {
    kContinue,  // keep testing this pair's remaining candidate ball
    kNextPair,  // done with this pair, move to the next
    kStop,      // abort the whole sweep
  };

  BallSweep(const std::vector<Vec3>& coords, std::size_t self_index,
            std::size_t witness_count, double radius,
            UnitBallFitting::InsideLimits limits, UbfScratch& scratch)
      : coords_(coords),
        self_(coords[self_index]),
        self_index_(self_index),
        witness_count_(witness_count),
        radius_(radius),
        scratch_(scratch) {
    scratch.cache.rebuild(coords, self_index);
    const std::size_t n = scratch.cache.size();
    scratch.lim_sq.resize(n);
    for (std::size_t slot = 0; slot < n; ++slot) {
      scratch.lim_sq[slot] =
          scratch.cache.original_index(slot) < witness_count
              ? limits.one_hop_sq
              : limits.two_hop_sq;
    }
    // two_hop_sq <= one_hop_sq by construction (see inside_limits).
    lim_max_ = std::sqrt(limits.one_hop_sq);
    pair_prune_sq_ = 4.0 * radius * radius * (1.0 + 1e-9);
    cutoff_slack_ = 1e-9 * radius;
  }

  /// Runs the sweep, accumulating work counts into `diag` and invoking
  /// `on_empty(j, k)` for every empty candidate ball, in naive order.
  template <typename Fn>
  void run(UbfNodeDiagnostics& diag, Fn&& on_empty) {
    const geom::CandidateCache& cache = scratch_.cache;
    std::vector<double>& lim = scratch_.lim_sq;
    const double* dist_sq = cache.dist_sq();
    bool stop = false;
    for (std::size_t j = 0; j < witness_count_ && !stop; ++j) {
      if (j == self_index_) continue;
      const std::uint32_t sj = cache.slot_of(j);
      if (dist_sq[sj] > pair_prune_sq_) continue;
      const Vec3& pj = coords_[j];
      const double save_j = lim[sj];
      lim[sj] = -1.0;  // witness of every ball in this j-iteration
      for (std::size_t k = j + 1; k < witness_count_ && !stop; ++k) {
        if (k == self_index_) continue;
        const std::uint32_t sk = cache.slot_of(k);
        if (dist_sq[sk] > pair_prune_sq_) continue;
        const Vec3& pk = coords_[k];
        if (pj.distance_sq_to(pk) > pair_prune_sq_) continue;
        const geom::TrisphereResult balls =
            geom::solve_trisphere(self_, pj, pk, radius_);
        ++diag.trisphere_solves;
        if (balls.count == 0) continue;
        const double save_k = lim[sk];
        lim[sk] = -1.0;
        for (int c = 0; c < balls.count; ++c) {
          ++diag.balls_tested;
          if (!ball_empty(balls.centers[c], diag)) continue;
          ++diag.empty_balls;
          const Step step = on_empty(j, k);
          if (step == Step::kNextPair) break;
          if (step == Step::kStop) {
            stop = true;
            break;
          }
        }
        lim[sk] = save_k;
      }
      lim[sj] = save_j;
    }
  }

 private:
  static constexpr std::uint32_t kNoSlot = geom::CandidateCache::kNoSlot;

  bool ball_empty(const Vec3& center, UbfNodeDiagnostics& diag) {
    const geom::CandidateCache& cache = scratch_.cache;
    const double* lim = scratch_.lim_sq.data();
    // Blocker memoization. A masked witness slot holds threshold −1 and
    // thus can never (re-)block here.
    if (last_blocker_ != kNoSlot) {
      ++diag.nodes_checked;
      if (cache.dist_sq_to(last_blocker_, center) < lim[last_blocker_]) {
        return false;
      }
    }
    const std::size_t n = cache.size();
    const double* xs = cache.xs();
    const double* ys = cache.ys();
    const double* zs = cache.zs();
    const double* dist_sq = cache.dist_sq();
    // |self − center| is r up to solver rounding; compute it instead of
    // assuming, so the cutoff is sound for every center the solver emits.
    const double center_dist = std::sqrt(self_.distance_sq_to(center));
    const double cutoff = center_dist + lim_max_ + cutoff_slack_;
    const double cutoff_sq = cutoff * cutoff;
    for (std::size_t s = 0; s < n; ++s) {
      if (dist_sq[s] >= cutoff_sq) break;  // sorted: nobody farther blocks
      const double dx = xs[s] - center.x;
      const double dy = ys[s] - center.y;
      const double dz = zs[s] - center.z;
      const double d2 = dx * dx + dy * dy + dz * dz;
      ++diag.nodes_checked;
      if (d2 < lim[s]) {
        last_blocker_ = static_cast<std::uint32_t>(s);
        return false;
      }
    }
    return true;
  }

  const std::vector<Vec3>& coords_;
  const Vec3 self_;
  const std::size_t self_index_;
  const std::size_t witness_count_;
  const double radius_;
  UbfScratch& scratch_;
  double lim_max_ = 0.0;
  double pair_prune_sq_ = 0.0;
  double cutoff_slack_ = 0.0;
  std::uint32_t last_blocker_ = kNoSlot;
};

/// What one node's ball test reads: `coords[self_index]` is the node
/// itself, entries below `witness_count` are its one-hop members
/// (candidate-ball witnesses), entries beyond are emptiness-only members
/// (two-hop view), all in one (arbitrary) frame. `uncertainty` is the
/// per-coordinate error estimate (absolute units; negative derives it from
/// `measurement_error_hint`).
struct NodeView {
  const std::vector<Vec3>* coords = nullptr;
  std::size_t self_index = 0;
  std::size_t witness_count = 0;
  double uncertainty = 0.0;
};

/// The one per-node kernel behind every entry point: Algorithm 1 on one
/// view. It certifies on the one-hop members and, only if they fail,
/// resumes with the remaining members; `add_members()` is called first and
/// may append them to the view on demand (the true-coordinates driver's
/// two-hop gather), while views that already hold them pass a no-op. An
/// uncertified view runs the pair sweep, which calls `on_empty(j, k)` for
/// every empty candidate ball, in naive order, and stops as it says (the
/// caller's stop rule: count to a cap, or collect pairs). Every shortcut
/// is provably outcome-neutral, so classification stays bit-identical to
/// the naive kernel (tests/ubf_oracle_test.cpp):
///
///   - **Interior certificate** (before the cache is even built): every
///     candidate center lies on the sphere S(self, r), up to solver
///     rounding. When every point of that sphere is strictly inside some
///     member's blocking ball, shrunk by a margin δ, no candidate ball can
///     be empty, so the sweep's outcome (zero empty balls, no callback) is
///     known and the sweep is skipped. The sphere is tiled by the cells of
///     `cover_table`; a cell with center direction e and chord h is covered
///     by member u when |self + r·e − u| < √lim_u − r·h − δ, and an
///     uncovered cell is split 1:4 down to the leaf level, where it fails
///     the certificate. Soundness: a center c at distance ρ from self, in
///     a direction d inside a cell that u covers, has |c − u| <= |ρ − r| +
///     r·|d − e| + |self + r·e − u| < √lim_u − (δ − |ρ − r|), so u blocks
///     c whenever δ exceeds |ρ − r| plus the rounding of d² in the
///     emptiness scan (a few ulps, relative). The choice of δ
///     (`certificate_margin`) is 1e-2·r + 1e-12·(largest |coordinate| of
///     self). `solve_trisphere` keeps ρ within ~1e-14·r of r on
///     well-shaped triples, but near its collinearity gate (two witnesses
///     ~1e-11·r apart) its centers drift by up to ~2.5e-4·r, so 1% of r
///     leaves a factor of 20 over the worst drift at δ/2
///     (tests/ubf_test.cpp checks the δ/2 bound on such triples). The
///     second term covers the absolute rounding of a center far from the
///     origin (~4e-16 of the coordinates). No masking is needed: the
///     witnesses j and k of a ball sit at distance r from its center, to
///     the same precision, while a covering member is closer than
///     √lim − δ/2 <= r − δ/2, so it is never one of the pair's own
///     witnesses. Which members are tried,
///     and in what order (the last covering member first, then the cell's
///     own octant outward), decides only how soon a cover is found.
///   - **One-hop-first certificate** (every view, both coordinate paths
///     and both scopes): the search starts on the one-hop members alone,
///     and a cover settles the node with zero empty balls. Soundness:
///     one-hop members carry the same limit in the one-hop subset and in
///     the full view, and a cell covered by a member of a subset is covered
///     by that member in the full set, so the full view certifies too.
///     Only when the subset fails does the kernel take the emptiness-only
///     members (gathering them first on true coordinates), and then it
///     resumes the failed search with them (`CoverSearch::resume`) rather
///     than starting over: the cells the one-hop members settled stay
///     settled, and the resumed search decides exactly what a fresh one on
///     the full view would. The order moves only `cover_checks`, which
///     counts both parts; the sweep that follows a failed certificate does
///     not try it again.
///   - **Pair pruning**: a sphere of radius r through two points farther
///     apart than 2r does not exist (circumradius > r), so such pairs are
///     skipped before the Eq. 1 solve. The 1e-9 relative slack keeps the
///     prune strictly conservative against rounding: only pairs whose
///     solve provably returns zero centers are dropped.
///   - **Nearest-first scans with a distance cutoff**: members are walked
///     in ascending distance-to-self order; since |u−c| >= |u−self| −
///     |self−c|, once a member is beyond |self−c| + limit (+slack) no later
///     member can be strictly inside, and the scan stops.
///   - **Blocker memoization**: consecutive candidate balls overlap
///     heavily, so the member that blocked the previous ball is re-tested
///     first. Checking any one member first cannot change the emptiness
///     conjunction.
///   - **Witness masking**: the pair's own witnesses are excluded from the
///     scan by setting their slot threshold to −1 (no distance is below
///     it) instead of branching on indices in the inner loop.
template <typename AddMembers, typename OnEmpty>
void test_view(const UnitBallFitting& ubf, const NodeView& view,
               UbfScratch& scratch, UbfNodeDiagnostics& diag,
               AddMembers&& add_members, OnEmpty&& on_empty) {
  const std::vector<Vec3>& coords = *view.coords;
  const UnitBallFitting::InsideLimits limits =
      ubf.inside_limits(view.uncertainty);
  CoverSearch& cover = scratch.cover;
  diag.certified = cover.start(coords, view.self_index, view.witness_count,
                               ubf.ball_radius(), limits, diag.cover_checks);
  if (!diag.certified) {
    add_members();
    diag.certified = coords.size() > view.witness_count &&
                     cover.resume(coords, diag.cover_checks);
  }
  if (diag.certified) return;
  BallSweep sweep(coords, view.self_index, view.witness_count,
                  ubf.ball_radius(), limits, scratch);
  sweep.run(diag, on_empty);
}

/// Stop rule "count to a cap": every empty ball counts, several per pair
/// included, until `cap` are found or the pairs run out; returns the
/// count. With `cap` the vote threshold this is `test_node`'s walk; a
/// larger cap counts the margin past it.
template <typename AddMembers>
std::size_t count_up_to(const UnitBallFitting& ubf, const NodeView& view,
                        std::size_t cap, UbfScratch& scratch,
                        UbfNodeDiagnostics& diag, AddMembers&& add_members) {
  test_view(ubf, view, scratch, diag, add_members,
            [&](std::size_t, std::size_t) {
              return diag.empty_balls >= cap ? BallSweep::Step::kStop
                                             : BallSweep::Step::kContinue;
            });
  return diag.empty_balls;
}

/// Stop rule "collect pairs": the witness pairs with an empty ball, one
/// entry per pair, in enumeration order, until `cap` are collected; `out`
/// is cleared first.
void collect_up_to(const UnitBallFitting& ubf, const NodeView& view,
                   std::size_t cap, UbfScratch& scratch,
                   UbfNodeDiagnostics& diag,
                   std::vector<std::pair<std::size_t, std::size_t>>& out) {
  out.clear();
  test_view(ubf, view, scratch, diag, [] {},
            [&](std::size_t j, std::size_t k) {
              out.push_back({j, k});
              return out.size() >= cap ? BallSweep::Step::kStop
                                       : BallSweep::Step::kNextPair;
            });
}

/// The public kernels' view of their arguments.
NodeView checked_view(const std::vector<Vec3>& coords, std::size_t self_index,
                      std::size_t witness_count, double coord_uncertainty) {
  BALLFIT_REQUIRE(self_index < coords.size(), "self index out of range");
  BALLFIT_REQUIRE(witness_count <= coords.size(),
                  "witness count exceeds member count");
  return {&coords, self_index, witness_count, coord_uncertainty};
}

}  // namespace

bool UnitBallFitting::test_node(const std::vector<Vec3>& coords,
                                std::size_t self_index,
                                std::size_t witness_count,
                                UbfNodeDiagnostics* diag,
                                double coord_uncertainty) const {
  return count_empty_balls(coords, self_index, witness_count,
                           config_.min_empty_balls, coord_uncertainty,
                           diag) >= config_.min_empty_balls;
}

std::vector<std::pair<std::size_t, std::size_t>>
UnitBallFitting::collect_empty_balls(const std::vector<Vec3>& coords,
                                     std::size_t self_index,
                                     std::size_t witness_count,
                                     std::size_t max_balls,
                                     double coord_uncertainty,
                                     UbfNodeDiagnostics* diag) const {
  const NodeView view =
      checked_view(coords, self_index, witness_count, coord_uncertainty);
  UbfNodeDiagnostics local;
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (max_balls > 0) {
    collect_up_to(*this, view, max_balls, local_scratch(), local, out);
  }
  local.found_empty_ball = !out.empty();
  if (diag != nullptr) *diag = local;
  return out;
}

std::size_t UnitBallFitting::count_empty_balls(const std::vector<Vec3>& coords,
                                               std::size_t self_index,
                                               std::size_t witness_count,
                                               std::size_t cap,
                                               double coord_uncertainty,
                                               UbfNodeDiagnostics* diag) const {
  const NodeView view =
      checked_view(coords, self_index, witness_count, coord_uncertainty);
  UbfNodeDiagnostics local;
  if (cap > 0) count_up_to(*this, view, cap, local_scratch(), local, [] {});
  local.found_empty_ball = local.empty_balls >= config_.min_empty_balls;
  if (diag != nullptr) *diag = local;
  return local.empty_balls;
}

bool UnitBallFitting::witness_confirms(const localization::LocalFrame& frame,
                                       NodeId a, NodeId b, NodeId c) const {
  if (!frame.ok) return true;  // witness cannot evaluate — no veto
  // Locate the triple in the witness's frame (linear scan; frames are
  // small and this runs only for the handful of candidate balls).
  std::size_t ia = frame.members.size(), ib = ia, ic = ia;
  for (std::size_t m = 0; m < frame.members.size(); ++m) {
    if (frame.members[m] == a) ia = m;
    else if (frame.members[m] == b) ib = m;
    else if (frame.members[m] == c) ic = m;
  }
  if (ia == frame.members.size() || ib == frame.members.size() ||
      ic == frame.members.size()) {
    return true;  // triple not fully visible here — no veto
  }

  const geom::TrisphereResult balls = geom::solve_trisphere(
      frame.coords[ia], frame.coords[ib], frame.coords[ic], radius_);
  // Triple too spread/collinear in this frame: the witness cannot form the
  // ball at all, so it cannot refute the claim either — no veto.
  if (balls.count == 0) return true;
  const InsideLimits limits = inside_limits(frame.stress_rms);
  for (int s = 0; s < balls.count; ++s) {
    // Side ambiguity between frames (reflection gauge): confirm when ANY
    // side is empty in the witness frame.
    if (ball_is_empty(frame.coords, balls.centers[s], ia, ib, ic,
                      frame.one_hop_count, limits.one_hop_sq,
                      limits.two_hop_sq)) {
      return true;
    }
  }
  return false;
}

namespace {

/// Frame path: the node's own local frame (the node first), uncertainty
/// from its residual stress.
NodeView frame_view(const localization::LocalFrame& frame, NodeId i) {
  BALLFIT_ASSERT(frame.members[0] == i);
  return {&frame.coords, 0, frame.one_hop_count, frame.stress_rms};
}

/// True-coordinates path: the alive one-hop positions gathered into the
/// worker's scratch arena (`gather`, whose capacity is reused across
/// nodes), uncertainty 0. Under kTwoHop, `add_two_hop` extends the same
/// view when the one-hop members alone cannot certify the node (see
/// `test_view`).
NodeView true_view(const net::Network& network, NodeId i,
                   const std::vector<char>* alive, UbfScratch& scratch) {
  std::vector<Vec3>& coords = scratch.gather;
  coords.clear();
  coords.push_back(network.position(i));
  for (NodeId v : network.neighbors(i)) {
    if (alive == nullptr || (*alive)[v] != 0) {
      coords.push_back(network.position(v));
    }
  }
  return {&coords, 0, coords.size(), 0.0};
}

/// Appends the alive two-hop members of i (neighbors of alive neighbors,
/// minus the one-hop set and i itself, deduplicated) to the view
/// `true_view` gathered. `seen` epoch-marks visited nodes (the
/// allocation-free equivalent of a per-node unordered_set — see
/// common/epoch_map.hpp); nodes settled on their one-hop view never touch
/// it. Member order is identical to the naive gather, though emptiness is
/// order-independent anyway.
void add_two_hop(const net::Network& network, NodeId i,
                 const std::vector<char>* alive, UbfScratch& scratch) {
  const auto dead = [&](NodeId v) {
    return alive != nullptr && (*alive)[v] == 0;
  };
  EpochSlotMap& seen = scratch.seen;
  seen.reset_universe(network.num_nodes());
  seen.clear();
  seen.insert(i, 0);
  for (NodeId v : network.neighbors(i)) {
    if (!dead(v)) seen.insert(v, 0);
  }
  for (NodeId j : network.neighbors(i)) {
    if (dead(j)) continue;
    for (NodeId u : network.neighbors(j)) {
      if (!dead(u) && seen.insert(u, 0)) {
        scratch.gather.push_back(network.position(u));
      }
    }
  }
}

/// The one per-node ball-test driver behind every detector entry point.
/// Node i's view comes from `frames[i]` when frames are given, else from
/// the true positions (`true_view`); the frame path cross-verifies, since
/// witnesses confirm in their own frames, and the true-coordinates path
/// counts votes. Every node the `run_mask` selects is recomputed from
/// scratch; all shortcuts are upstream (which nodes run), never inside a
/// node's decision, so a run over any sound dirty set leaves `flags` equal
/// to a full recompute. Nodes are visited in the network's spatial order,
/// so a worker's consecutive nodes read overlapping neighborhoods; each
/// flag depends only on its node's inputs, so the order moves no result.
void run_ball_tests(const UnitBallFitting& ubf, const net::Network& network,
                    const std::vector<localization::LocalFrame>* frames,
                    std::vector<char>& flags, const std::vector<char>* alive,
                    const std::vector<char>* run_mask, unsigned workers,
                    std::atomic<std::size_t>* fallbacks,
                    std::vector<float>* confidence) {
  const UbfConfig& config = ubf.config();
  const std::size_t n = network.num_nodes();
  const bool two_hop = config.scope == UbfConfig::EmptinessScope::kTwoHop;
  const bool want_conf = confidence != nullptr;
  // Candidate-ball budget per node, also the vote cap past the decision
  // threshold (bounded extra work, enough margin to separate "barely
  // boundary" from "saturated").
  const std::size_t pool = std::max(kVerifyPool, config.min_empty_balls);

  // Per-node work histograms (Theorem 1's Θ(ρ³) in the wild) and the
  // deterministic work counters summed over the tested nodes. Handles are
  // fetched once here so the parallel workers below never touch the
  // registry map; null when collection is disabled.
  obs::Histogram* h_neighbors = nullptr;
  obs::Histogram* h_balls = nullptr;
  obs::Histogram* h_empty = nullptr;
  obs::Histogram* h_conf = nullptr;
  obs::Counter* c_certified = nullptr;
  obs::Counter* c_solves = nullptr;
  obs::Counter* c_balls = nullptr;
  obs::Counter* c_cover = nullptr;
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    c_certified = &reg.counter("ubf.nodes_certified");
    c_solves = &reg.counter("ubf.trisphere_solves");
    c_balls = &reg.counter("ubf.balls_tested");
    c_cover = &reg.counter("ubf.cover_checks");
    h_neighbors = &reg.histogram("ubf.node_neighbors",
                                 {4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 64});
    h_balls = &reg.histogram("ubf.candidate_balls",
                             {0, 50, 100, 200, 400, 800, 1600, 3200});
    h_empty = &reg.histogram("ubf.empty_balls", {0, 1, 2, 4, 8, 16, 32});
    if (want_conf) {
      h_conf = &reg.histogram(
          "ubf.confidence", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9});
    }
  }

  BALLFIT_SPAN("ball_test");
  const std::string parent = obs::current_span_path();
  const std::span<const NodeId> order = network.spatial_order();
  parallel_for(
      n,
      [&](std::size_t k) {
        const std::size_t i = order[k];
        if (run_mask != nullptr && (*run_mask)[i] == 0) return;
        const obs::SpanPathScope adopt(parent);
        BALLFIT_SPAN("node");
        const auto set_conf = [&](double c) {
          if (!want_conf) return;
          (*confidence)[i] = static_cast<float>(c);
          if (h_conf != nullptr) h_conf->observe(c);
        };
        if (alive != nullptr && (*alive)[i] == 0) {
          flags[i] = 0;  // crashed nodes claim nothing
          if (want_conf) (*confidence)[i] = 0.0f;
          return;
        }
        const NodeId self = static_cast<NodeId>(i);
        if (degenerate_view(network, self, frames, alive)) {
          flags[i] = config.degenerate_is_boundary ? 1 : 0;
          // A degenerate fallback is a claim with no ball evidence: pin it
          // to the decision threshold when it votes boundary.
          set_conf(config.degenerate_is_boundary ? 0.5 : 0.0);
          if (fallbacks != nullptr) {
            fallbacks->fetch_add(1, std::memory_order_relaxed);
          }
          return;
        }
        UbfScratch& scratch = local_scratch();
        const NodeView view = frames != nullptr
                                  ? frame_view((*frames)[i], self)
                                  : true_view(network, self, alive, scratch);
        if (h_neighbors != nullptr) {
          h_neighbors->observe(static_cast<double>(view.witness_count - 1));
        }
        if (!ubf.frame_reliable(view.uncertainty)) {
          flags[i] = 0;  // abstention, not evidence — score it as none
          set_conf(0.0);
          return;
        }
        UbfNodeDiagnostics diag;
        std::size_t votes = 0;
        if (frames == nullptr) {
          votes = count_up_to(ubf, view,
                              want_conf ? pool : config.min_empty_balls,
                              scratch, diag, [&] {
                                if (two_hop) {
                                  add_two_hop(network, self, alive, scratch);
                                }
                              });
        } else {
          // Cross-verification: each candidate ball's witnesses confirm it
          // in their own frames.
          const std::vector<NodeId>& members = (*frames)[i].members;
          collect_up_to(ubf, view, pool, scratch, diag, scratch.pairs);
          for (const auto& [j, k] : scratch.pairs) {
            const NodeId jn = members[j];
            const NodeId kn = members[k];
            if (ubf.witness_confirms((*frames)[jn], jn, self, kn) &&
                ubf.witness_confirms((*frames)[kn], kn, self, jn)) {
              ++votes;
              // The verdict is sealed at the threshold; only keep
              // verifying past it when the margin is wanted.
              if (!want_conf && votes >= config.min_empty_balls) break;
            }
          }
        }
        flags[i] = votes >= config.min_empty_balls ? 1 : 0;
        set_conf(vote_confidence(votes, config.min_empty_balls));
        if (h_balls != nullptr) {
          h_balls->observe(static_cast<double>(diag.balls_tested));
        }
        if (c_certified != nullptr) {
          if (diag.certified) c_certified->add();
          c_solves->add(diag.trisphere_solves);
          c_balls->add(diag.balls_tested);
          c_cover->add(diag.cover_checks);
        }
        if (h_empty != nullptr) {
          h_empty->observe(static_cast<double>(diag.empty_balls));
        }
      },
      workers);
}

/// Full (unmasked) run of the driver, with fallback counting.
std::vector<bool> detect_all(
    const UnitBallFitting& ubf, const net::Network& network,
    const std::vector<localization::LocalFrame>* frames,
    const std::vector<char>* alive, unsigned threads,
    std::size_t* frame_fallbacks, std::vector<float>* confidence) {
  const std::size_t n = network.num_nodes();
  BALLFIT_REQUIRE(frames == nullptr || frames->size() == n,
                  "one frame per node required");
  BALLFIT_REQUIRE(alive == nullptr || alive->size() == n,
                  "alive mask must be sized num_nodes");
  if (confidence != nullptr) confidence->assign(n, 0.0f);

  // vector<bool> is not safe for concurrent writes, hence the char staging
  // buffer.
  std::vector<char> flags(n, 0);
  std::atomic<std::size_t> fallbacks{0};
  run_ball_tests(ubf, network, frames, flags, alive, /*run_mask=*/nullptr,
                 threads, &fallbacks, confidence);

  if (frame_fallbacks != nullptr) {
    *frame_fallbacks = fallbacks.load(std::memory_order_relaxed);
  }
  std::vector<bool> boundary(n, false);
  for (std::size_t i = 0; i < n; ++i) boundary[i] = flags[i] != 0;
  return boundary;
}

}  // namespace

std::vector<bool> UnitBallFitting::detect_on_frames(
    const std::vector<localization::LocalFrame>& frames, unsigned threads,
    std::size_t* frame_fallbacks, std::vector<float>* confidence) const {
  return detect_all(*this, *network_, &frames, /*alive=*/nullptr, threads,
                    frame_fallbacks, confidence);
}

std::vector<bool> UnitBallFitting::detect_with_true_coordinates(
    std::size_t* frame_fallbacks, const std::vector<char>* alive,
    std::vector<float>* confidence, unsigned threads) const {
  return detect_all(*this, *network_, /*frames=*/nullptr, alive, threads,
                    frame_fallbacks, confidence);
}

void UnitBallFitting::update_flags(
    const std::vector<localization::LocalFrame>* frames,
    std::vector<char>& flags, const std::vector<char>* alive,
    const std::vector<char>* run_mask, unsigned threads,
    std::vector<float>* confidence) const {
  const std::size_t n = network_->num_nodes();
  BALLFIT_REQUIRE(frames == nullptr || frames->size() == n,
                  "one frame per node required");
  BALLFIT_REQUIRE(flags.size() == n, "flags must be sized num_nodes");
  BALLFIT_REQUIRE(alive == nullptr || alive->size() == n,
                  "alive mask must be sized num_nodes");
  BALLFIT_REQUIRE(confidence == nullptr || confidence->size() == n,
                  "confidence must be pre-sized num_nodes");
  run_ball_tests(*this, *network_, frames, flags, alive, run_mask, threads,
                 /*fallbacks=*/nullptr, confidence);
}

}  // namespace ballfit::core
