//! Per-tenant serving policy: a resource budget and the two admission
//! quotas (token-bucket rate, in-flight cap).

use std::time::{Duration, Instant};
use taco_core::ResourceBudget;

/// What one tenant is allowed to do to the shared engine.
///
/// A policy maps straight onto the existing reliability machinery: the
/// budget is enforced by the [`Supervisor`](taco_core::Supervisor) (folded
/// with the engine's own budget via [`ResourceBudget::min_with`]), and the
/// two quotas are checked at admission so an abusive tenant is rejected
/// with a typed reason instead of starving everyone else's workers. The
/// verification mode and the execution backend are the engine's
/// ([`EngineConfig`](taco_runtime::EngineConfig)`::{verify, backend}`),
/// the same for every tenant.
///
/// [`TenantPolicy::default`] is fully permissive — an unknown tenant under
/// the default policy behaves like a pre-quota client.
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Resource budget applied to every run this tenant submits, combined
    /// with the supervisor deadline per request. The engine's own budget
    /// still applies on top (the tighter limit wins per resource).
    pub budget: ResourceBudget,
    /// Sustained admission rate, requests per second (token-bucket refill).
    /// `f64::INFINITY` disables rate limiting.
    pub rate_per_sec: f64,
    /// Token-bucket capacity: how many requests may arrive back to back
    /// before the rate limit bites.
    pub burst: u32,
    /// Maximum requests this tenant may have admitted at once (queued plus
    /// running). `usize::MAX` disables the cap.
    pub max_in_flight: usize,
}

impl Default for TenantPolicy {
    fn default() -> TenantPolicy {
        TenantPolicy {
            budget: ResourceBudget::unlimited(),
            rate_per_sec: f64::INFINITY,
            burst: u32::MAX,
            max_in_flight: usize::MAX,
        }
    }
}

impl TenantPolicy {
    /// A fully permissive policy (the `Default`).
    pub fn permissive() -> TenantPolicy {
        TenantPolicy::default()
    }

    /// Sets the per-run resource budget.
    #[must_use]
    pub fn with_budget(mut self, budget: ResourceBudget) -> TenantPolicy {
        self.budget = budget;
        self
    }

    /// Sets the token-bucket rate limit: `rate_per_sec` sustained, up to
    /// `burst` back to back.
    #[must_use]
    pub fn with_rate(mut self, rate_per_sec: f64, burst: u32) -> TenantPolicy {
        self.rate_per_sec = rate_per_sec;
        self.burst = burst;
        self
    }

    /// Sets the in-flight (queued + running) cap.
    #[must_use]
    pub fn with_max_in_flight(mut self, max: usize) -> TenantPolicy {
        self.max_in_flight = max;
        self
    }
}

/// A token bucket tracking one tenant's admission rate. Refilled lazily at
/// each take from the wall clock, so idle tenants accumulate burst headroom
/// up to the policy cap and there is no background refill thread.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// A bucket born full (a fresh tenant gets its whole burst).
    pub(crate) fn full(policy: &TenantPolicy, now: Instant) -> TokenBucket {
        TokenBucket { tokens: f64::from(policy.burst.min(1 << 24)), last_refill: now }
    }

    /// Takes one token if available, refilling from elapsed time first.
    pub(crate) fn try_take(&mut self, policy: &TenantPolicy, now: Instant) -> bool {
        if policy.rate_per_sec.is_infinite() {
            return true;
        }
        let cap = f64::from(policy.burst.min(1 << 24));
        let elapsed = now.saturating_duration_since(self.last_refill);
        self.tokens = (self.tokens + elapsed.as_secs_f64() * policy.rate_per_sec).min(cap);
        self.last_refill = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Rounds a duration up to whole milliseconds for human-facing messages.
pub(crate) fn fmt_ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_enforces_burst_then_rate() {
        let policy = TenantPolicy::default().with_rate(10.0, 3);
        let t0 = Instant::now();
        let mut bucket = TokenBucket::full(&policy, t0);
        // The full burst is admitted back to back...
        assert!(bucket.try_take(&policy, t0));
        assert!(bucket.try_take(&policy, t0));
        assert!(bucket.try_take(&policy, t0));
        // ...the fourth instantaneous request is not...
        assert!(!bucket.try_take(&policy, t0));
        // ...but 100 ms later one token (10/sec) has refilled.
        assert!(bucket.try_take(&policy, t0 + Duration::from_millis(100)));
        assert!(!bucket.try_take(&policy, t0 + Duration::from_millis(100)));
    }

    #[test]
    fn infinite_rate_never_rejects_and_burst_caps_refill() {
        let policy = TenantPolicy::default();
        let t0 = Instant::now();
        let mut bucket = TokenBucket::full(&policy, t0);
        for _ in 0..10_000 {
            assert!(bucket.try_take(&policy, t0));
        }
        // A finite bucket never refills past its burst capacity.
        let policy = TenantPolicy::default().with_rate(1000.0, 2);
        let mut bucket = TokenBucket::full(&policy, t0);
        assert!(bucket.try_take(&policy, t0));
        assert!(bucket.try_take(&policy, t0));
        let later = t0 + Duration::from_secs(3600);
        assert!(bucket.try_take(&policy, later));
        assert!(bucket.try_take(&policy, later));
        assert!(!bucket.try_take(&policy, later), "refill is capped at burst");
    }
}
