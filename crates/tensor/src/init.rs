//! Weight initialisers.

use crate::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Glorot/Xavier uniform initialisation: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. The default for dense layers.
#[must_use]
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rows, cols, -a, a, rng)
}

/// Uniform initialisation over `[lo, hi)`.
#[must_use]
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed_rng;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = seed_rng(1);
        let m = xavier_uniform(100, 50, &mut rng);
        let a = (6.0 / 150.0f32).sqrt();
        assert!(m.as_slice().iter().all(|&v| v >= -a && v < a));
    }

    #[test]
    fn init_deterministic_under_seed() {
        let a = xavier_uniform(8, 8, &mut seed_rng(7));
        let b = xavier_uniform(8, 8, &mut seed_rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn init_mean_is_near_zero() {
        let mut rng = seed_rng(3);
        let m = xavier_uniform(200, 200, &mut rng);
        let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
    }
}
