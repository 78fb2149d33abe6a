//! Worker supervision policy for `gevo-serve` (DESIGN.md §3.9):
//! deadlines, bounded retry, exponential backoff.
//!
//! | knob | meaning | default |
//! |---|---|---|
//! | `GEVO_JOB_DEADLINE` | per-job wall-clock deadline, seconds | off |
//! | `GEVO_JOB_RETRIES` | retries after a failed/panicked attempt | 2 |
//! | `GEVO_JOB_BACKOFF_MS` | base backoff before retry 1 (doubles per retry) | 250 |
//!
//! The policy is pure data + arithmetic so the scheduling can be unit
//! tested without a server: the serve binary reads
//! [`RetryPolicy::from_env`] and [`deadline_from_env`] once at startup
//! (a malformed value stops the server there, never inside a job) and
//! sleeps [`RetryPolicy::backoff`] between attempts. Retries resume
//! from the job's last checkpoint (retry ≠ restart); the deadline is
//! enforced cooperatively at step boundaries, which is sound because
//! every evaluation is already bounded by the interpreter's step
//! budget — no single step can stall for long.

use std::time::Duration;

/// Backoff growth is capped here so a long retry ladder cannot sleep
/// a worker for minutes.
const BACKOFF_CAP: Duration = Duration::from_secs(10);

/// Bounded-retry schedule for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first failed attempt (total attempts =
    /// `retries + 1`).
    pub retries: usize,
    /// Backoff before the first retry; doubles each further retry.
    pub backoff_base: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 2,
            backoff_base: Duration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    /// The policy in force (`GEVO_JOB_RETRIES`, `GEVO_JOB_BACKOFF_MS`),
    /// by the [`crate::parse_knob`] rules.
    #[must_use]
    pub fn from_env() -> RetryPolicy {
        let default = RetryPolicy::default();
        RetryPolicy {
            retries: crate::env_usize("GEVO_JOB_RETRIES", default.retries),
            backoff_base: crate::env_knob("GEVO_JOB_BACKOFF_MS")
                .map_or(default.backoff_base, Duration::from_millis),
        }
    }

    /// Backoff before retry number `retry` (1-based): exponential
    /// doubling from the base, capped at ten seconds.
    #[must_use]
    pub fn backoff(&self, retry: usize) -> Duration {
        let doublings = u32::try_from(retry.saturating_sub(1))
            .unwrap_or(u32::MAX)
            .min(30);
        self.backoff_base
            .saturating_mul(1_u32 << doublings)
            .min(BACKOFF_CAP)
    }
}

/// The server-wide deadline: `GEVO_JOB_DEADLINE` seconds, by the
/// [`crate::parse_knob`] rules.
#[must_use]
pub fn deadline_from_env() -> Option<Duration> {
    crate::env_knob("GEVO_JOB_DEADLINE").map(Duration::from_secs)
}

/// The deadline in force for a job: the job's own `deadline_s` field
/// when present, else the server-wide default ([`deadline_from_env`]).
#[must_use]
pub fn job_deadline(explicit_s: Option<u64>, server: Option<Duration>) -> Option<Duration> {
    explicit_s.map(Duration::from_secs).or(server)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_base() {
        let p = RetryPolicy {
            retries: 5,
            backoff_base: Duration::from_millis(100),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(100));
        assert_eq!(p.backoff(2), Duration::from_millis(200));
        assert_eq!(p.backoff(3), Duration::from_millis(400));
        assert_eq!(p.backoff(4), Duration::from_millis(800));
    }

    #[test]
    fn backoff_caps_instead_of_overflowing() {
        let p = RetryPolicy {
            retries: 100,
            backoff_base: Duration::from_millis(250),
        };
        assert_eq!(p.backoff(50), BACKOFF_CAP);
        assert_eq!(p.backoff(usize::MAX), BACKOFF_CAP);
        let zero = RetryPolicy {
            retries: 1,
            backoff_base: Duration::ZERO,
        };
        assert_eq!(zero.backoff(7), Duration::ZERO);
    }

    #[test]
    fn explicit_deadline_wins_over_env() {
        let server = Some(Duration::from_secs(5));
        assert_eq!(
            job_deadline(Some(30), server),
            Some(Duration::from_secs(30))
        );
        assert_eq!(job_deadline(None, server), server);
        assert_eq!(job_deadline(None, None), None);
    }
}
