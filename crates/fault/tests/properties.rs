//! Property-based tests for fault-model invariants.

use drivefi_ads::SignalRange;
use drivefi_fault::{FaultWindow, ScalarFaultModel};
use proptest::prelude::*;

proptest! {
    /// The IEEE-754 bit-flip model is an involution.
    #[test]
    fn bitflip_involutive(value in any::<f64>(), bit in 0u8..64) {
        prop_assume!(!value.is_nan());
        let m = ScalarFaultModel::BitFlip(bit);
        let range = SignalRange { min: 0.0, max: 1.0 };
        let twice = m.apply(m.apply(value, range), range);
        // NaN can appear after one flip; compare by bit pattern.
        prop_assert_eq!(twice.to_bits(), value.to_bits());
    }

    /// Stuck-at-min/max always land exactly on the range endpoints,
    /// regardless of the incoming value.
    #[test]
    fn stuck_models_land_on_range(value in -1e9..1e9f64, lo in -100.0..0.0f64, hi in 0.1..100.0f64) {
        let range = SignalRange { min: lo, max: hi };
        prop_assert_eq!(ScalarFaultModel::StuckMin.apply(value, range), lo);
        prop_assert_eq!(ScalarFaultModel::StuckMax.apply(value, range), hi);
    }

    /// A burst window is active exactly on `[start, start + frames)`.
    #[test]
    fn window_membership(start in 0u64..10_000, frames in 1u64..1_000, probe in 0u64..12_000) {
        let w = FaultWindow::burst(start, frames);
        let expect = probe >= start && probe < start + frames;
        prop_assert_eq!(w.active(probe), expect);
    }

    /// Offset and scale compose predictably.
    #[test]
    fn offset_scale_arithmetic(value in -1e6..1e6f64, d in -100.0..100.0f64, f in -10.0..10.0f64) {
        let range = SignalRange { min: 0.0, max: 1.0 };
        prop_assert_eq!(ScalarFaultModel::Offset(d).apply(value, range), value + d);
        prop_assert_eq!(ScalarFaultModel::Scale(f).apply(value, range), value * f);
    }
}
