//! Radio propagation: free-space and two-ray path-loss models (test-only).
//!
//! The paper configures QualNet with a transmission power of 15 dB, per-rate
//! reception sensitivities (−93/−89/−87/−83 dBm) and a two-ray path-loss model,
//! and reports the resulting radio ranges (442/339/321/273 m). The simulator
//! uses those reported ranges; this module derives them from the same physical
//! parameters instead (the maximum range at which the received power still
//! exceeds a sensitivity threshold), the oracle behind
//! `derived_ranges_are_in_the_paper_ballpark` in `radio.rs`.

use std::f64::consts::PI;

/// Speed of light in m/s.
const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Wavelength in meters for a carrier frequency in Hz.
///
/// # Panics
///
/// Panics if `frequency_hz` is not strictly positive.
fn wavelength(frequency_hz: f64) -> f64 {
    assert!(frequency_hz > 0.0, "frequency must be positive");
    SPEED_OF_LIGHT / frequency_hz
}

/// Free-space path loss in dB at `distance_m` meters for `frequency_hz` Hz.
///
/// Returns 0 dB for distances of one meter or less (near field is out of scope
/// for a network simulator).
fn free_space_path_loss_db(distance_m: f64, frequency_hz: f64) -> f64 {
    if distance_m <= 1.0 {
        return 0.0;
    }
    let lambda = wavelength(frequency_hz);
    20.0 * (4.0 * PI * distance_m / lambda).log10()
}

/// Two-ray ground-reflection path loss in dB.
///
/// Below the crossover distance `d_c = 4 π h_t h_r / λ` the model falls back to
/// free-space loss; beyond it the classic `40 log10(d) − 20 log10(h_t h_r)`
/// expression applies. Antenna heights are in meters.
fn two_ray_path_loss_db(
    distance_m: f64,
    frequency_hz: f64,
    tx_height_m: f64,
    rx_height_m: f64,
) -> f64 {
    if distance_m <= 1.0 {
        return 0.0;
    }
    let lambda = wavelength(frequency_hz);
    let crossover = 4.0 * PI * tx_height_m * rx_height_m / lambda;
    if distance_m < crossover {
        free_space_path_loss_db(distance_m, frequency_hz)
    } else {
        40.0 * distance_m.log10() - 20.0 * (tx_height_m * rx_height_m).log10()
    }
}

/// Received power in dBm given transmit power, antenna efficiency and a path
/// loss in dB.
fn received_power_dbm(tx_power_dbm: f64, antenna_efficiency: f64, path_loss_db: f64) -> f64 {
    let efficiency_loss_db = if antenna_efficiency > 0.0 {
        -10.0 * antenna_efficiency.log10()
    } else {
        f64::INFINITY
    };
    tx_power_dbm - path_loss_db - efficiency_loss_db
}

/// The largest distance (in meters) at which the received power still reaches
/// `sensitivity_dbm`, under the two-ray model, found by bisection. Returns 0 if
/// even at one meter the signal is too weak.
pub(crate) fn two_ray_range_m(
    tx_power_dbm: f64,
    sensitivity_dbm: f64,
    frequency_hz: f64,
    antenna_efficiency: f64,
    tx_height_m: f64,
    rx_height_m: f64,
) -> f64 {
    let rx_at = |d: f64| {
        received_power_dbm(
            tx_power_dbm,
            antenna_efficiency,
            two_ray_path_loss_db(d, frequency_hz, tx_height_m, rx_height_m),
        )
    };
    if rx_at(1.0) < sensitivity_dbm {
        return 0.0;
    }
    let mut lo = 1.0;
    let mut hi = 100_000.0;
    if rx_at(hi) >= sensitivity_dbm {
        return hi;
    }
    for _ in 0..200 {
        let mid = (lo + hi) / 2.0;
        if rx_at(mid) >= sensitivity_dbm {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_at_2_4_ghz() {
        let l = wavelength(2.4e9);
        assert!(
            (l - 0.1249).abs() < 1e-3,
            "2.4 GHz wavelength should be ~12.5 cm, got {l}"
        );
    }

    #[test]
    fn free_space_loss_increases_with_distance_and_frequency() {
        let f = 2.4e9;
        assert!(free_space_path_loss_db(100.0, f) < free_space_path_loss_db(200.0, f));
        assert!(free_space_path_loss_db(100.0, 2.4e9) < free_space_path_loss_db(100.0, 5.0e9));
        assert_eq!(free_space_path_loss_db(0.5, f), 0.0);
        // +6 dB per doubling of distance.
        let delta = free_space_path_loss_db(200.0, f) - free_space_path_loss_db(100.0, f);
        assert!((delta - 6.02).abs() < 0.1);
    }

    #[test]
    fn two_ray_matches_free_space_below_crossover() {
        let f = 2.4e9;
        let d = 50.0;
        assert_eq!(
            two_ray_path_loss_db(d, f, 1.5, 1.5),
            free_space_path_loss_db(d, f)
        );
    }

    #[test]
    fn two_ray_decays_faster_beyond_crossover() {
        let f = 2.4e9;
        // +12 dB per doubling of distance in the two-ray regime.
        let a = two_ray_path_loss_db(2_000.0, f, 1.5, 1.5);
        let b = two_ray_path_loss_db(4_000.0, f, 1.5, 1.5);
        assert!(
            (b - a - 12.04).abs() < 0.2,
            "two-ray should lose ~12 dB per doubling, got {}",
            b - a
        );
    }

    #[test]
    fn received_power_decreases_with_loss() {
        let strong = received_power_dbm(15.0, 0.8, 60.0);
        let weak = received_power_dbm(15.0, 0.8, 90.0);
        assert!(strong > weak);
        // Antenna efficiency below 1 costs power.
        assert!(received_power_dbm(15.0, 1.0, 60.0) > received_power_dbm(15.0, 0.8, 60.0));
    }

    #[test]
    fn range_monotone_in_sensitivity() {
        // A more sensitive receiver (more negative threshold) reaches farther.
        let f = 2.4e9;
        let far = two_ray_range_m(15.0, -93.0, f, 0.8, 1.5, 1.5);
        let near = two_ray_range_m(15.0, -83.0, f, 0.8, 1.5, 1.5);
        assert!(
            far > near,
            "-93 dBm sensitivity must out-range -83 dBm ({far} vs {near})"
        );
        assert!(
            far > 100.0 && far < 5_000.0,
            "2.4 GHz two-ray range should be a few hundred meters, got {far}"
        );
    }

    #[test]
    fn range_is_consistent_with_path_loss() {
        // At the computed range the link budget closes; 10% farther it does not.
        let f = 2.4e9;
        let sens = -89.0;
        let r = two_ray_range_m(15.0, sens, f, 0.8, 1.5, 1.5);
        let at_range = received_power_dbm(15.0, 0.8, two_ray_path_loss_db(r, f, 1.5, 1.5));
        let beyond = received_power_dbm(15.0, 0.8, two_ray_path_loss_db(r * 1.1, f, 1.5, 1.5));
        assert!(at_range >= sens - 0.01);
        assert!(beyond < sens);
    }

    #[test]
    fn zero_tx_power_still_behaves() {
        let r = two_ray_range_m(-200.0, -93.0, 2.4e9, 0.8, 1.5, 1.5);
        assert_eq!(r, 0.0, "an absurdly weak transmitter has no range");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Path loss is monotone non-decreasing in distance for both models.
        #[test]
        fn path_loss_monotone(d1 in 1.0f64..10_000.0, d2 in 1.0f64..10_000.0) {
            let f = 2.4e9;
            let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(free_space_path_loss_db(near, f) <= free_space_path_loss_db(far, f) + 1e-9);
            prop_assert!(two_ray_path_loss_db(near, f, 1.5, 1.5) <= two_ray_path_loss_db(far, f, 1.5, 1.5) + 1e-9);
        }

        /// Computed range grows with transmit power.
        #[test]
        fn range_monotone_in_tx_power(p1 in -10.0f64..30.0, p2 in -10.0f64..30.0) {
            let (weak, strong) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let r_weak = two_ray_range_m(weak, -89.0, 2.4e9, 0.8, 1.5, 1.5);
            let r_strong = two_ray_range_m(strong, -89.0, 2.4e9, 0.8, 1.5, 1.5);
            prop_assert!(r_weak <= r_strong + 1e-6);
        }
    }
}
