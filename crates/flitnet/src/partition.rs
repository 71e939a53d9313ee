//! Static partitioning of virtual channels between traffic classes.
//!
//! The paper (§4.2.3) divides the VCs of every physical channel into two
//! disjoint groups: for a traffic mix `x:y`, a fraction `x/(x+y)` of the VCs
//! is reserved for VBR/CBR traffic and the rest for best-effort. This module
//! implements that split plus the per-VC stream-capacity arithmetic
//! ("6 streams per VC" for 4 Mbps streams on a 400 Mbps / 16 VC link).

use crate::class::TrafficClass;
use crate::ids::VcId;

/// Restriction on which half of a class's VC range a hop may allocate.
///
/// Rings (and therefore tori) need a dateline discipline to keep the
/// channel-dependency graph acyclic: within each traffic class's VC range,
/// the lower half is reserved for hops whose remaining path still crosses
/// the wrap-around link and the upper half for hops past it. Topologies
/// without wrap links use [`VcSel::Any`], which restricts nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcSel {
    /// No restriction (every topology without datelines).
    Any,
    /// Only the lower half of the class's VC range (path still crosses
    /// the dateline, including the wrap hop itself).
    Lower,
    /// Only the upper half of the class's VC range (path past the
    /// dateline, or one that never crosses it).
    Upper,
}

/// The x:y split of one physical channel's virtual channels.
///
/// # Example
///
/// ```
/// use flitnet::{TrafficClass, VcPartition};
///
/// // 16 VCs, 80:20 real-time : best-effort.
/// let p = VcPartition::from_mix(16, 80.0, 20.0);
/// assert_eq!(p.real_time_count(), 13); // round(16 * 0.8)
/// assert_eq!(p.best_effort_count(), 3);
/// assert!(p.class_of(flitnet::VcId(0)).is_real_time());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcPartition {
    total: u32,
    real_time: u32,
}

impl VcPartition {
    /// Splits `total` VCs according to the load mix `x:y` (real-time :
    /// best-effort). VCs `0..rt` become real-time, `rt..total` best-effort,
    /// where `rt = round(total · x/(x+y))` — clamped so that a class with
    /// non-zero share keeps at least one VC.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`, either share is negative, or both are zero.
    pub fn from_mix(total: u32, x: f64, y: f64) -> VcPartition {
        assert!(total > 0, "need at least one VC");
        assert!(x >= 0.0 && y >= 0.0, "shares must be non-negative");
        assert!(x + y > 0.0, "at least one share must be positive");
        let frac = x / (x + y);
        let mut rt = (f64::from(total) * frac).round() as u32;
        if x > 0.0 {
            rt = rt.max(1);
        }
        if y > 0.0 {
            rt = rt.min(total - 1);
        }
        if x == 0.0 {
            rt = 0;
        }
        VcPartition {
            total,
            real_time: rt,
        }
    }

    /// A partition that dedicates every VC to real-time traffic (the
    /// paper's 100:0 experiments).
    pub fn all_real_time(total: u32) -> VcPartition {
        assert!(total > 0, "need at least one VC");
        VcPartition {
            total,
            real_time: total,
        }
    }

    /// Total VCs per physical channel.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Number of VCs reserved for VBR/CBR.
    pub fn real_time_count(&self) -> u32 {
        self.real_time
    }

    /// Number of VCs reserved for best-effort.
    pub fn best_effort_count(&self) -> u32 {
        self.total - self.real_time
    }

    /// The VC indices available to `class`.
    pub fn vcs_for(&self, class: TrafficClass) -> impl Iterator<Item = VcId> + use<> {
        let (lo, hi) = if class.is_real_time() {
            (0, self.real_time)
        } else {
            (self.real_time, self.total)
        };
        (lo..hi).map(VcId)
    }

    /// Which class a VC belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn class_of(&self, vc: VcId) -> TrafficClass {
        assert!(vc.get() < self.total, "VC {vc} out of range");
        if vc.get() < self.real_time {
            TrafficClass::Vbr
        } else {
            TrafficClass::BestEffort
        }
    }

    /// Whether `sel` permits allocating `vc`.
    ///
    /// The halves are computed within the class range of `vc` itself
    /// (`split = lo + (hi - lo) / 2`; `Lower` is `[lo, split)`, `Upper` is
    /// `[split, hi)`), so the dateline discipline composes with the
    /// real-time / best-effort partition instead of cutting across it.
    /// Note that a single-VC class has an *empty* lower half — topologies
    /// with datelines need at least two VCs per populated class.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn sel_allows(&self, sel: VcSel, vc: VcId) -> bool {
        let (lo, hi) = if self.class_of(vc).is_real_time() {
            (0, self.real_time)
        } else {
            (self.real_time, self.total)
        };
        let split = lo + (hi - lo) / 2;
        match sel {
            VcSel::Any => true,
            VcSel::Lower => vc.get() < split,
            VcSel::Upper => vc.get() >= split,
        }
    }

    /// Maximum simultaneous streams one VC can carry without oversubscribing
    /// its bandwidth share: `⌊(link_bw / total_vcs) / stream_bw⌋`.
    ///
    /// The paper's example: 400 Mbps, 16 VCs, 4 Mbps streams → 6 per VC.
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is not positive.
    pub fn streams_per_vc(&self, link_bps: f64, stream_bps: f64) -> u32 {
        assert!(
            link_bps > 0.0 && stream_bps > 0.0,
            "bandwidths must be positive"
        );
        ((link_bps / f64::from(self.total)) / stream_bps).floor() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_streams_per_vc() {
        let p = VcPartition::all_real_time(16);
        assert_eq!(p.streams_per_vc(400e6, 4e6), 6);
    }

    #[test]
    fn mix_80_20_of_16() {
        let p = VcPartition::from_mix(16, 80.0, 20.0);
        assert_eq!(p.real_time_count(), 13);
        assert_eq!(p.best_effort_count(), 3);
        assert_eq!(p.total(), 16);
    }

    #[test]
    fn mix_50_50_of_16() {
        let p = VcPartition::from_mix(16, 50.0, 50.0);
        assert_eq!(p.real_time_count(), 8);
        assert_eq!(p.best_effort_count(), 8);
    }

    #[test]
    fn mix_100_0_uses_all_vcs() {
        let p = VcPartition::from_mix(16, 100.0, 0.0);
        assert_eq!(p.real_time_count(), 16);
        assert_eq!(p.best_effort_count(), 0);
    }

    #[test]
    fn mix_0_100_uses_no_rt_vcs() {
        let p = VcPartition::from_mix(8, 0.0, 100.0);
        assert_eq!(p.real_time_count(), 0);
        assert_eq!(p.best_effort_count(), 8);
    }

    #[test]
    fn nonzero_share_keeps_at_least_one_vc() {
        // 99:1 on 4 VCs would round best-effort to zero; the clamp keeps one.
        let p = VcPartition::from_mix(4, 99.0, 1.0);
        assert_eq!(p.best_effort_count(), 1);
        let q = VcPartition::from_mix(4, 1.0, 99.0);
        assert_eq!(q.real_time_count(), 1);
    }

    #[test]
    fn vcs_for_are_disjoint_and_cover() {
        let p = VcPartition::from_mix(16, 80.0, 20.0);
        let rt: Vec<VcId> = p.vcs_for(TrafficClass::Vbr).collect();
        let be: Vec<VcId> = p.vcs_for(TrafficClass::BestEffort).collect();
        assert_eq!(rt.len() + be.len(), 16);
        for vc in &rt {
            assert!(p.class_of(*vc).is_real_time());
        }
        for vc in &be {
            assert!(!p.class_of(*vc).is_real_time());
        }
    }

    #[test]
    fn cbr_and_vbr_share_the_real_time_partition() {
        let p = VcPartition::from_mix(16, 50.0, 50.0);
        let vbr: Vec<VcId> = p.vcs_for(TrafficClass::Vbr).collect();
        let cbr: Vec<VcId> = p.vcs_for(TrafficClass::Cbr).collect();
        assert_eq!(vbr, cbr);
    }

    #[test]
    fn pcs_configuration_streams_per_vc() {
        // Fig. 8's 100 Mbps / 24 VC configuration: each VC's bandwidth
        // share carries exactly one 4 Mbps stream.
        let p = VcPartition::all_real_time(24);
        assert_eq!(p.streams_per_vc(100e6, 4e6), 1);
    }

    #[test]
    fn single_vc_partition() {
        let p = VcPartition::all_real_time(1);
        assert_eq!(p.real_time_count(), 1);
        assert_eq!(p.vcs_for(TrafficClass::Vbr).count(), 1);
        assert_eq!(p.vcs_for(TrafficClass::BestEffort).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn class_of_out_of_range_panics() {
        let p = VcPartition::all_real_time(4);
        let _ = p.class_of(VcId(4));
    }

    #[test]
    fn sel_any_allows_everything() {
        let p = VcPartition::from_mix(16, 80.0, 20.0);
        for vc in 0..16 {
            assert!(p.sel_allows(VcSel::Any, VcId(vc)));
        }
    }

    #[test]
    fn sel_halves_partition_each_class_range() {
        // 13 real-time VCs split 6/7, 3 best-effort VCs split 1/2.
        let p = VcPartition::from_mix(16, 80.0, 20.0);
        let lower: Vec<u32> = (0..16)
            .filter(|&v| p.sel_allows(VcSel::Lower, VcId(v)))
            .collect();
        let upper: Vec<u32> = (0..16)
            .filter(|&v| p.sel_allows(VcSel::Upper, VcId(v)))
            .collect();
        assert_eq!(lower, vec![0, 1, 2, 3, 4, 5, 13]);
        assert_eq!(upper, vec![6, 7, 8, 9, 10, 11, 12, 14, 15]);
        // Halves are complementary within every class.
        for vc in 0..16 {
            assert_ne!(
                p.sel_allows(VcSel::Lower, VcId(vc)),
                p.sel_allows(VcSel::Upper, VcId(vc))
            );
        }
    }

    #[test]
    fn sel_lower_is_empty_for_a_single_vc_class() {
        // The documented caveat: one VC cannot be halved, so dateline
        // topologies must provision at least two per populated class.
        let p = VcPartition::all_real_time(1);
        assert!(!p.sel_allows(VcSel::Lower, VcId(0)));
        assert!(p.sel_allows(VcSel::Upper, VcId(0)));
    }

    #[test]
    fn sel_even_split_balances_halves() {
        let p = VcPartition::all_real_time(4);
        let lower = (0..4).filter(|&v| p.sel_allows(VcSel::Lower, VcId(v)));
        let upper = (0..4).filter(|&v| p.sel_allows(VcSel::Upper, VcId(v)));
        assert_eq!(lower.collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(upper.collect::<Vec<_>>(), vec![2, 3]);
    }
}
