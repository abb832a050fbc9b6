//! The asymmetric quadratic transform of NH and FH (Huang et al., SIGMOD'21).
//!
//! For an augmented data point `x ∈ R^d` and query `q ∈ R^d`, the full transform maps
//!
//! ```text
//! f(x) = ( x_i·x_j )              for every ordered coordinate pair (i, j)
//! g(q) = ( ∓ q_i·q_j )            same pairs, negated for NH / positive for FH
//! ```
//!
//! so that `⟨f(x), g(q)⟩ = ∓ ⟨x, q⟩²`. NH appends a norm-alignment coordinate
//! `sqrt(M − ‖f(x)‖²)` to the data (0 to the query) so that all transformed data points
//! have the same norm `sqrt(M)` and Euclidean NNS over the transformed vectors orders
//! points by `⟨x, q⟩²` — exactly the P2HNNS order. FH keeps the raw transform and solves
//! a furthest-neighbor problem instead (handling the varying `‖f(x)‖` by norm-based
//! partitioning, see [`crate::FhIndex`]).
//!
//! The full transform has `d²` coordinates (`Ω(d²)` as the paper writes); the
//! **randomized sampling** variant draws `λ` coordinate pairs uniformly at random and
//! rescales, which is an unbiased estimator of the full inner product and is the variant
//! the paper benchmarks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p2h_core::Scalar;

/// The (optionally sampled) quadratic coordinate-pair transform shared by NH and FH.
#[derive(Debug, Clone)]
pub struct QuadraticTransform {
    /// Input (augmented) dimensionality `d`.
    input_dim: usize,
    /// The sampled coordinate pairs; `pairs.len()` is the transformed dimensionality λ.
    pairs: Vec<(u32, u32)>,
    /// Scale applied to every sampled product so the sampled inner product estimates the
    /// full `⟨x,q⟩²` (irrelevant for ranking, kept for interpretability of norms).
    scale: Scalar,
}

impl QuadraticTransform {
    /// Creates the *full* `d²`-dimensional transform (every ordered pair `(i, j)`).
    pub fn full(input_dim: usize) -> Self {
        let mut pairs = Vec::with_capacity(input_dim * input_dim);
        for i in 0..input_dim as u32 {
            for j in 0..input_dim as u32 {
                pairs.push((i, j));
            }
        }
        Self { input_dim, pairs, scale: 1.0 }
    }

    /// Creates the randomized-sampling transform with `lambda` sampled coordinate pairs
    /// (the `λ ∈ {d, 2d, 4d, 8d}` configurations of the paper).
    pub fn sampled(input_dim: usize, lambda: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let lambda = lambda.max(1);
        let pairs = (0..lambda)
            .map(|_| (rng.gen_range(0..input_dim) as u32, rng.gen_range(0..input_dim) as u32))
            .collect();
        // Each product is sampled with probability λ/d², so rescale by d/sqrt(λ) to make
        // the sampled inner product an unbiased estimator of ⟨x,q⟩².
        let scale = input_dim as Scalar / (lambda as Scalar).sqrt();
        Self { input_dim, pairs, scale }
    }

    /// Dimensionality of the transformed vectors (λ, or `d²` for the full transform).
    pub fn output_dim(&self) -> usize {
        self.pairs.len()
    }

    /// Input (augmented) dimensionality `d`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Transforms a data point: `f(x)[k] = scale · x_i · x_j` for the k-th sampled pair.
    pub fn transform_data(&self, x: &[Scalar]) -> Vec<Scalar> {
        debug_assert_eq!(x.len(), self.input_dim);
        self.pairs.iter().map(|&(i, j)| self.scale * x[i as usize] * x[j as usize]).collect()
    }

    /// Transforms a query with the given sign (`-1` for NH so that larger inner product
    /// means smaller `⟨x,q⟩²`; `+1` for FH).
    pub fn transform_query(&self, q: &[Scalar], sign: Scalar) -> Vec<Scalar> {
        debug_assert_eq!(q.len(), self.input_dim);
        self.pairs.iter().map(|&(i, j)| sign * self.scale * q[i as usize] * q[j as usize]).collect()
    }

    /// The exact inner product the transform represents:
    /// `⟨f(x), g_sign(q)⟩ = sign · scale² · (Σ_sampled x_i x_j q_i q_j)`. With the full
    /// transform this equals `sign · ⟨x, q⟩²` exactly.
    pub fn transformed_inner_product(&self, x: &[Scalar], q: &[Scalar], sign: Scalar) -> Scalar {
        let fx = self.transform_data(x);
        let gq = self.transform_query(q, sign);
        p2h_core::distance::dot(&fx, &gq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::distance;
    use proptest::prelude::*;

    #[test]
    fn full_transform_recovers_squared_inner_product() {
        let t = QuadraticTransform::full(4);
        assert_eq!(t.output_dim(), 16);
        assert_eq!(t.input_dim(), 4);
        let x = [1.0, -2.0, 0.5, 1.0];
        let q = [0.3, 0.7, -1.1, 0.2];
        let ip = distance::dot(&x, &q);
        let got = t.transformed_inner_product(&x, &q, -1.0);
        assert!((got + ip * ip).abs() < 1e-4, "expected -<x,q>^2 = {}, got {got}", -ip * ip);
        let pos = t.transformed_inner_product(&x, &q, 1.0);
        assert!((pos - ip * ip).abs() < 1e-4);
    }

    #[test]
    fn sampled_transform_has_lambda_dims_and_is_deterministic() {
        let t1 = QuadraticTransform::sampled(10, 40, 7);
        let t2 = QuadraticTransform::sampled(10, 40, 7);
        assert_eq!(t1.output_dim(), 40);
        let x: Vec<Scalar> = (0..10).map(|i| i as Scalar * 0.1).collect();
        assert_eq!(t1.transform_data(&x), t2.transform_data(&x));
        let t3 = QuadraticTransform::sampled(10, 40, 8);
        assert_ne!(t1.transform_data(&x), t3.transform_data(&x));
    }

    #[test]
    fn sampled_transform_estimates_squared_inner_product() {
        // Averaged over many sampled transforms, the estimate converges to <x,q>^2.
        let x = [0.5, -1.0, 2.0, 0.0, 1.0, -0.5];
        let q = [1.0, 0.5, -0.5, 2.0, -1.0, 0.3];
        let exact = distance::dot(&x, &q).powi(2);
        let mut sum = 0.0;
        let trials = 400;
        for seed in 0..trials {
            let t = QuadraticTransform::sampled(6, 24, seed);
            sum += t.transformed_inner_product(&x, &q, 1.0);
        }
        let mean = sum / trials as Scalar;
        assert!(
            (mean - exact).abs() < 0.25 * exact.abs().max(1.0),
            "sampled estimator should be close to <x,q>^2 = {exact}, got mean {mean}"
        );
    }

    #[test]
    fn lambda_is_clamped_to_at_least_one() {
        let t = QuadraticTransform::sampled(5, 0, 1);
        assert_eq!(t.output_dim(), 1);
    }

    proptest! {
        #[test]
        fn full_transform_identity_holds(
            x in proptest::collection::vec(-3.0f32..3.0, 5),
            q in proptest::collection::vec(-3.0f32..3.0, 5),
        ) {
            let t = QuadraticTransform::full(5);
            let ip = distance::dot(&x, &q);
            let got = t.transformed_inner_product(&x, &q, -1.0);
            prop_assert!((got + ip * ip).abs() < 1e-2 * (1.0 + ip * ip));
        }
    }
}
