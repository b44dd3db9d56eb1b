//! Page geometry and locality ("line touch") counters.
//!
//! The OS.1 footnote in the paper imagines packing frequently co-accessed
//! data "to be used efficiently in the limited, but fast-access memory of
//! modern hardware including CPU cache". We cannot portably read hardware
//! counters, so the OS.1 experiments count *page touches*: every record
//! access touches the page holding the record's current physical position.
//! Fewer distinct pages touched by a workload ⇒ better locality. The
//! counter is interior-mutable so read paths stay `&self`.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Page geometry: how many record slots share one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageConfig {
    records_per_page: u64,
}

impl PageConfig {
    /// Geometry with `records_per_page` slots per page (min 1).
    pub fn new(records_per_page: u64) -> Self {
        PageConfig {
            records_per_page: records_per_page.max(1),
        }
    }

    /// Slots per page.
    pub fn records_per_page(&self) -> u64 {
        self.records_per_page
    }

    /// The page holding physical position `pos`.
    pub fn page_of(&self, pos: u64) -> u64 {
        pos / self.records_per_page
    }

    /// Number of pages needed for `n` positions.
    pub fn pages_for(&self, n: u64) -> u64 {
        n.div_ceil(self.records_per_page)
    }
}

impl Default for PageConfig {
    fn default() -> Self {
        // 64 records/page ≈ a few cache lines of fixed-width fields; the
        // exact constant only scales the experiments, it does not change
        // who wins.
        PageConfig::new(64)
    }
}

/// Thread-safe accumulation of page touches.
#[derive(Debug, Default)]
pub struct TouchCounter {
    total: AtomicU64,
    seen: Mutex<std::collections::HashSet<u64>>,
}

impl TouchCounter {
    /// New empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a touch of `page`.
    pub fn touch(&self, page: u64) {
        self.total.fetch_add(1, Ordering::Relaxed);
        self.seen.lock().insert(page);
    }

    /// Total touches (with repetition).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Distinct pages touched.
    pub fn distinct(&self) -> u64 {
        self.seen.lock().len() as u64
    }

    /// Clear all counts.
    pub fn reset(&self) {
        self.total.store(0, Ordering::Relaxed);
        self.seen.lock().clear();
    }
}

/// A mapping from logical record offsets to physical positions — the
/// mechanism by which the OS.1 clusterer changes locality without changing
/// record identity.
#[derive(Debug, Clone)]
pub struct PageMap {
    /// `position[offset] = physical position`.
    position: Vec<u64>,
}

impl PageMap {
    /// Identity map over `n` offsets.
    pub fn identity(n: u64) -> Self {
        PageMap {
            position: (0..n).collect(),
        }
    }

    /// Build from an explicit permutation `order`, where `order[i]` is the
    /// offset placed at physical position `i`.
    pub fn from_order(order: &[u64]) -> Self {
        let mut position = vec![0u64; order.len()];
        for (pos, &offset) in order.iter().enumerate() {
            position[offset as usize] = pos as u64;
        }
        PageMap { position }
    }

    /// Physical position of `offset`, if covered.
    pub fn position_of(&self, offset: u64) -> Option<u64> {
        self.position.get(offset as usize).copied()
    }

    /// Number of mapped offsets.
    pub fn len(&self) -> usize {
        self.position.len()
    }

    /// True when the map covers nothing.
    pub fn is_empty(&self) -> bool {
        self.position.is_empty()
    }

    /// Distinct pages a set of offsets lands on under `pages`.
    pub fn pages_touched(&self, offsets: &[u64], pages: PageConfig) -> u64 {
        let mut set = std::collections::HashSet::new();
        for &o in offsets {
            if let Some(p) = self.position_of(o) {
                set.insert(pages.page_of(p));
            }
        }
        set.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        let p = PageConfig::new(4);
        assert_eq!(p.page_of(0), 0);
        assert_eq!(p.page_of(3), 0);
        assert_eq!(p.page_of(4), 1);
        assert_eq!(p.pages_for(0), 0);
        assert_eq!(p.pages_for(1), 1);
        assert_eq!(p.pages_for(9), 3);
    }

    #[test]
    fn zero_sized_pages_clamped() {
        let p = PageConfig::new(0);
        assert_eq!(p.records_per_page(), 1);
    }

    #[test]
    fn touch_counting() {
        let c = TouchCounter::new();
        c.touch(1);
        c.touch(1);
        c.touch(2);
        assert_eq!(c.total(), 3);
        assert_eq!(c.distinct(), 2);
        c.reset();
        assert_eq!((c.total(), c.distinct()), (0, 0));
    }

    #[test]
    fn identity_map() {
        let m = PageMap::identity(5);
        assert_eq!(m.position_of(3), Some(3));
        assert_eq!(m.position_of(5), None);
    }

    #[test]
    fn from_order_inverts() {
        // Physical order: offsets 2,0,1 — so offset 2 is at position 0.
        let m = PageMap::from_order(&[2, 0, 1]);
        assert_eq!(m.position_of(2), Some(0));
        assert_eq!(m.position_of(0), Some(1));
        assert_eq!(m.position_of(1), Some(2));
    }

    #[test]
    fn pages_touched_reflects_layout() {
        let pages = PageConfig::new(2);
        // Offsets 0 and 3 far apart in identity layout: 2 pages.
        let id = PageMap::identity(4);
        assert_eq!(id.pages_touched(&[0, 3], pages), 2);
        // Layout placing 0 and 3 adjacent: 1 page.
        let packed = PageMap::from_order(&[0, 3, 1, 2]);
        assert_eq!(packed.pages_touched(&[0, 3], pages), 1);
    }
}
