//! The sampled-profile ring: "the profile already exists when you ask".
//!
//! The serving layer traces 1-in-N queries and debug-run iterations
//! (per-session knobs, on by default — see
//! [`SessionSlot`](crate::pool::SessionSlot)) and parks the harvested
//! span trees here, in a fixed-size ring of recent profiles served at
//! `GET /debug/profiles` (list) and `GET /debug/profiles/{id}` (full
//! entry with the tree). A second ring holds **slow** entries:
//! anything over the session's latency threshold is force-captured —
//! with its span tree when that request happened to be sampled, as a
//! bare latency record otherwise (a trace cannot be reconstructed
//! retroactively).
//!
//! Both rings are bounded ([`RECENT_CAP`] / [`SLOW_CAP`]); pushes are a
//! short mutex hold on an already-harvested tree, never on the query
//! hot path's lock.

use rain_obs::TraceNode;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

/// Entries retained in the recent-profiles ring.
pub const RECENT_CAP: usize = 64;
/// Entries retained in the slow-captures ring.
pub const SLOW_CAP: usize = 32;

/// One captured profile.
#[derive(Debug, Clone)]
pub struct ProfileEntry {
    /// Server-unique, monotonically increasing id (fetch-by-id key).
    pub id: u64,
    /// `"query"` or `"iteration"` (a debug-run loop pass).
    pub kind: &'static str,
    /// Session the work ran in.
    pub session: String,
    /// What ran: the SQL text for queries, `method iteration=N` for
    /// debug-run iterations.
    pub detail: String,
    /// Wall-clock latency of the captured work, in seconds.
    pub latency_s: f64,
    /// Client-supplied request id of the triggering request, when one
    /// rode on the query/debug-run body — correlates profile entries with
    /// the client's own logs.
    pub request_id: Option<String>,
    /// Capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The harvested span tree; `None` for slow captures of unsampled
    /// requests (latency recorded, trace unavailable retroactively).
    pub trace: Option<TraceNode>,
}

#[derive(Default)]
struct Rings {
    recent: VecDeque<Arc<ProfileEntry>>,
    slow: VecDeque<Arc<ProfileEntry>>,
    next_id: u64,
}

/// The two bounded rings plus the id counter, behind one short mutex.
#[derive(Default)]
pub struct ProfileRing {
    inner: Mutex<Rings>,
}

fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl ProfileRing {
    /// Empty rings.
    pub fn new() -> ProfileRing {
        ProfileRing::default()
    }

    fn lock(&self) -> MutexGuard<'_, Rings> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Park a sampled profile in the recent ring (evicting the oldest
    /// past [`RECENT_CAP`]); returns its id. `slow` additionally
    /// references the entry from the slow ring — callers decide by
    /// comparing latency to the session's threshold.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &self,
        kind: &'static str,
        session: &str,
        detail: String,
        latency_s: f64,
        request_id: Option<String>,
        trace: Option<TraceNode>,
        slow: bool,
    ) -> u64 {
        let mut rings = self.lock();
        rings.next_id += 1;
        let id = rings.next_id;
        let entry = Arc::new(ProfileEntry {
            id,
            kind,
            session: session.to_string(),
            detail,
            latency_s,
            request_id,
            unix_ms: now_unix_ms(),
            trace,
        });
        // Slow captures without a trace are latency records only — they
        // live in the slow ring alone, keeping the recent ring pure
        // "here is a span tree" material.
        if entry.trace.is_some() {
            rings.recent.push_back(Arc::clone(&entry));
            while rings.recent.len() > RECENT_CAP {
                rings.recent.pop_front();
            }
        }
        if slow {
            rings.slow.push_back(entry);
            while rings.slow.len() > SLOW_CAP {
                rings.slow.pop_front();
            }
        }
        id
    }

    /// Snapshot both rings, newest last: `(recent, slow)`.
    pub fn list(&self) -> (Vec<Arc<ProfileEntry>>, Vec<Arc<ProfileEntry>>) {
        let rings = self.lock();
        (
            rings.recent.iter().cloned().collect(),
            rings.slow.iter().cloned().collect(),
        )
    }

    /// Fetch one entry by id, searching both rings.
    pub fn get(&self, id: u64) -> Option<Arc<ProfileEntry>> {
        let rings = self.lock();
        rings
            .recent
            .iter()
            .chain(rings.slow.iter())
            .find(|e| e.id == id)
            .cloned()
    }

    /// Entries currently in the recent ring.
    pub fn len(&self) -> usize {
        self.lock().recent.len()
    }

    /// True when nothing has been captured (either ring).
    pub fn is_empty(&self) -> bool {
        let rings = self.lock();
        rings.recent.is_empty() && rings.slow.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &'static str) -> TraceNode {
        TraceNode {
            name,
            start_ns: 0,
            dur_ns: 1,
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    #[test]
    fn rings_are_bounded_and_ids_fetch() {
        let ring = ProfileRing::new();
        assert!(ring.is_empty());
        let mut last = 0;
        for i in 0..(RECENT_CAP + 10) {
            last = ring.push(
                "query",
                "s",
                format!("SELECT {i}"),
                0.001,
                None,
                Some(leaf("query")),
                false,
            );
        }
        assert_eq!(ring.len(), RECENT_CAP);
        let (recent, slow) = ring.list();
        assert_eq!(recent.len(), RECENT_CAP);
        assert!(slow.is_empty());
        // Oldest evicted, newest retained and fetchable by id.
        assert_eq!(recent.last().unwrap().id, last);
        let got = ring.get(last).expect("newest entry fetchable");
        assert_eq!(got.detail, format!("SELECT {}", RECENT_CAP + 9));
        assert!(got.trace.is_some());
        assert!(ring.get(recent[0].id - 1).is_none(), "evicted id is gone");
    }

    #[test]
    fn slow_captures_without_traces_stay_out_of_the_recent_ring() {
        let ring = ProfileRing::new();
        let id = ring.push("query", "s", "SELECT slow".into(), 2.5, None, None, true);
        assert_eq!(ring.len(), 0, "traceless capture is slow-ring only");
        assert!(!ring.is_empty());
        let (recent, slow) = ring.list();
        assert!(recent.is_empty());
        assert_eq!(slow.len(), 1);
        let e = ring.get(id).unwrap();
        assert!(e.trace.is_none());
        assert!(e.latency_s > 2.0);
        // A sampled slow capture appears in both rings as one entry.
        let id2 = ring.push(
            "query",
            "s",
            "SELECT both".into(),
            3.0,
            Some("req-7".into()),
            Some(leaf("query")),
            true,
        );
        let (recent, slow) = ring.list();
        assert_eq!((recent.len(), slow.len()), (1, 2));
        assert_eq!(recent[0].id, id2);
        assert_eq!(slow[1].id, id2);
    }
}
