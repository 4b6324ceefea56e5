//! Read-through memoization of the serving path's pure route queries.
//!
//! Real workloads repeat landmark pairs constantly (commuter corridors —
//! the motivation of popular routes in Sec. IV): every `summarize` call
//! would otherwise re-derive `PR(from, to)` and, per routing feature, the
//! popular route's per-hop regular value sequence. Both are **pure
//! functions of the trained model**: `PopularRoutes::popular_route`
//! depends only on `(from, to)` and the model, and the per-hop sequence
//! only on `(from, to, feature)` — so memoizing them can change latency
//! but never output bytes. That is the determinism argument (DESIGN.md
//! §12) that lets every [`crate::Summarizer`] answer route queries through
//! this cache, at any thread count and at the fixed size
//! [`ROUTE_CACHE_ROUTES`].
//!
//! Values are stored as `Arc` slices so a hit is a probe plus a
//! refcount bump — no `Vec` clone on the hot path.
//!
//! **One cache, one model.** The purity argument above holds only against
//! a single immutable [`crate::TrainedModel`]: entries are keyed by
//! landmark pair, *not* by model identity, and negative answers (`None`
//! routes/values) are memoized too. A `CachedRoutes` must therefore live
//! and die with exactly one model generation — the model-swap paths
//! (`Summarizer::swap_model`, the serving layer's hot-swap slot) install
//! a fresh cache in the same step as the new model, so a swapped-in model
//! can never be answered from the previous model's entries. See
//! DESIGN.md §15.

use std::sync::Arc;

use stmaker_cache::{CacheStats, ShardedCache};
use stmaker_poi::LandmarkId;
use stmaker_routes::{HistoricalFeatureMap, PopularRoutes};

use crate::feature::FeatureScale;
use crate::select::popular_route_values;

/// Routes every summarizer's cache holds (plus `VALUES_PER_ROUTE` value
/// sequences per route). The end-to-end benchmark's working set, under
/// 2,000 routes and value sequences together, fits without eviction;
/// DESIGN.md §12 has the measurement.
pub const ROUTE_CACHE_ROUTES: usize = 4096;

/// How many per-route value sequences to keep per cached route: one per
/// feature of the standard set, rounded up — custom feature sets with
/// more features simply share the budget.
const VALUES_PER_ROUTE: usize = 8;

/// Memo for [`PopularRoutes::popular_route`] and the per-hop regular
/// value sequences along each popular route. Shared by reference across
/// `summarize_batch` workers; see the module docs for the
/// purity/determinism contract.
pub struct CachedRoutes {
    /// `(from, to) → PR(from, to)` (including negative answers: pairs the
    /// corpus gives no basis for are cached as `None`).
    routes: ShardedCache<(LandmarkId, LandmarkId), Option<Arc<[LandmarkId]>>>,
    /// `(from, to, feature idx) → per-hop regular values along
    /// `PR(from, to)``. Keyed by endpoints, not the route itself, because
    /// the route is a pure function of the endpoints.
    values: ShardedCache<(LandmarkId, LandmarkId, u32), Option<Arc<[f64]>>>,
}

impl CachedRoutes {
    /// A cache bounded at `capacity` routes (plus up to
    /// `capacity × VALUES_PER_ROUTE` value sequences alongside).
    pub fn new(capacity: usize) -> Self {
        Self {
            routes: ShardedCache::new(capacity),
            values: ShardedCache::new(capacity.saturating_mul(VALUES_PER_ROUTE)),
        }
    }

    /// Read-through `PR(from, to)` against `model`.
    pub fn popular_route(
        &self,
        model: &PopularRoutes,
        from: LandmarkId,
        to: LandmarkId,
    ) -> Option<Arc<[LandmarkId]>> {
        self.routes.get_or_insert_with(&(from, to), || model.popular_route(from, to).map(Arc::from))
    }

    /// Read-through per-hop regular values of feature `feat_idx` (with key
    /// `key` and scale `scale`) along `route`, which must be the popular
    /// route of its own endpoints — the memo key is `(first, last,
    /// feat_idx)`.
    pub fn route_values(
        &self,
        featmap: &HistoricalFeatureMap,
        route: &[LandmarkId],
        key: &str,
        scale: FeatureScale,
        feat_idx: u32,
    ) -> Option<Arc<[f64]>> {
        let (Some(&from), Some(&to)) = (route.first(), route.last()) else {
            return popular_route_values(featmap, route, key, scale).map(Arc::from);
        };
        self.values.get_or_insert_with(&(from, to, feat_idx), || {
            popular_route_values(featmap, route, key, scale).map(Arc::from)
        })
    }

    /// Combined counters of the route and value caches (the
    /// `cache.hits`/`cache.misses`/`cache.evictions` numbers the batch
    /// entry points report).
    pub fn stats(&self) -> CacheStats {
        self.routes.stats().combined(&self.values.stats())
    }

    /// Capacity of the route cache alone (reported as the
    /// `route_cache.capacity` gauge).
    pub fn route_capacity(&self) -> usize {
        self.routes.capacity()
    }
}

impl Default for CachedRoutes {
    /// The summarizer's cache: [`ROUTE_CACHE_ROUTES`] routes.
    fn default() -> Self {
        Self::new(ROUTE_CACHE_ROUTES)
    }
}

impl std::fmt::Debug for CachedRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedRoutes")
            .field("routes", &self.routes)
            .field("values", &self.values)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmaker_routes::PopularRouteConfig;
    use stmaker_trajectory::{SymbolicPoint, SymbolicTrajectory, Timestamp};

    fn l(i: u32) -> LandmarkId {
        LandmarkId(i)
    }

    fn traj(ids: &[u32]) -> SymbolicTrajectory {
        SymbolicTrajectory::new(
            ids.iter()
                .enumerate()
                .map(|(i, l)| SymbolicPoint {
                    landmark: LandmarkId(*l),
                    t: Timestamp(60 * i as i64),
                })
                .collect(),
        )
    }

    /// A small trained model: popular routes mined from a corpus over
    /// landmarks 0..6, and per-hop history for the corpus's hops — except
    /// `width`, recorded on some hops only, so some routes have no value
    /// sequence for it.
    fn trained() -> (PopularRoutes, HistoricalFeatureMap) {
        let seqs: [&[u32]; 8] = [
            &[0, 1, 2, 3],
            &[0, 1, 2, 3],
            &[0, 4, 3],
            &[1, 2, 5],
            &[1, 2, 5, 6],
            &[4, 3, 2, 1],
            &[6, 5, 2],
            &[0, 4, 5, 6],
        ];
        let corpus: Vec<SymbolicTrajectory> = seqs.iter().map(|s| traj(s)).collect();
        let mut featmap = HistoricalFeatureMap::new();
        for s in seqs {
            for w in s.windows(2) {
                let (a, b) = (l(w[0]), l(w[1]));
                featmap.add_observation(a, b, "speed", f64::from(10 * w[0] + w[1]));
                featmap.add_categorical_observation(a, b, "grade", (w[0] + w[1]) % 3);
                if w[0] < 4 {
                    featmap.add_observation(a, b, "width", f64::from(w[1]));
                }
            }
        }
        (PopularRoutes::build(&corpus, PopularRouteConfig::default()), featmap)
    }

    #[test]
    fn cache_answers_exactly_like_the_model() {
        let (pr, featmap) = trained();
        let features = [
            ("speed", FeatureScale::Numeric),
            ("grade", FeatureScale::Categorical),
            ("width", FeatureScale::Numeric),
        ];
        // Every pair over the model's landmarks, plus ids it has never seen.
        let pairs: Vec<(u32, u32)> = (0..9).flat_map(|a| (0..9).map(move |b| (a, b))).collect();
        for capacity in [ROUTE_CACHE_ROUTES, 2] {
            let cache = CachedRoutes::new(capacity);
            for pass in ["first", "repeated"] {
                let (mut routes, mut unrouted, mut no_values) = (0, 0, 0);
                for &(a, b) in &pairs {
                    let ctx = format!("cap {capacity}, {pass} lookup of ({a},{b})");
                    let direct = pr.popular_route(l(a), l(b));
                    let cached = cache.popular_route(&pr, l(a), l(b));
                    assert_eq!(cached.as_deref(), direct.as_deref(), "{ctx}");
                    let Some(route) = direct else {
                        unrouted += 1;
                        continue;
                    };
                    routes += 1;
                    for (i, &(key, scale)) in features.iter().enumerate() {
                        let direct = popular_route_values(&featmap, &route, key, scale);
                        let cached = cache.route_values(&featmap, &route, key, scale, i as u32);
                        assert_eq!(cached.as_deref(), direct.as_deref(), "{ctx}, {key}");
                        no_values += usize::from(direct.is_none());
                    }
                }
                assert!(
                    routes > 20 && unrouted > 0 && no_values > 0,
                    "{routes}/{unrouted}/{no_values}"
                );
            }
            let stats = cache.stats();
            if capacity == 2 {
                assert!(stats.evictions > 0, "a 2-route cache must evict");
            } else {
                // The second pass is served from memoized entries alone.
                assert_eq!(stats.evictions, 0);
                assert_eq!(stats.hits, stats.misses, "{stats:?}");
            }
        }
    }

    #[test]
    fn empty_route_is_computed_not_cached() {
        let featmap = HistoricalFeatureMap::new();
        let cache = CachedRoutes::new(4);
        let got = cache.route_values(&featmap, &[], "speed", FeatureScale::Numeric, 0);
        assert_eq!(got.as_deref().map(|v| v.len()), Some(0));
        assert_eq!(cache.stats().misses, 0);
    }
}
