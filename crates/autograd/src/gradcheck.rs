//! Finite-difference gradient verification, compiled for tests only.
//!
//! The `nn` and `tape` tests prove every hand-written adjoint against a
//! central difference with it.

use crate::tape::{Tape, Var};
use orbit2_tensor::random::randn;
use orbit2_tensor::Tensor;

/// Check the analytic gradients of `f` (a scalar-valued function of several
/// tensors) against central finite differences on random inputs.
///
/// `shapes` defines the input tensors; `tol` is the max allowed absolute
/// error per element (scaled by gradient magnitude).
///
/// # Panics
/// Panics with a diagnostic when any gradient element disagrees.
pub(crate) fn check_gradients<F>(shapes: &[Vec<usize>], f: F, tol: f32, seed: u64)
where
    F: for<'t> Fn(&'t Tape, &[Var<'t>]) -> Var<'t>,
{
    let inputs: Vec<Tensor> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| randn(s, seed.wrapping_add(i as u64)))
        .collect();

    // Analytic gradients.
    let tape = Tape::new();
    let vars: Vec<Var<'_>> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let loss = f(&tape, &vars);
    let grads = tape.backward(loss);
    let analytic: Vec<Tensor> = vars.iter().map(|&v| grads.get_or_zero(v)).collect();

    // Central differences, probing every element.
    let eps = 1e-2f32;
    for (vi, input) in inputs.iter().enumerate() {
        for e in 0..input.len() {
            let eval = |delta: f32| -> f32 {
                let tape = Tape::new();
                let vars: Vec<Var<'_>> = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let mut t = t.clone();
                        if i == vi {
                            t.data_mut()[e] += delta;
                        }
                        tape.leaf(t)
                    })
                    .collect();
                f(&tape, &vars).value().item()
            };
            let fd = (eval(eps) - eval(-eps)) / (2.0 * eps);
            let an = analytic[vi].data()[e];
            let scale = 1.0f32.max(an.abs()).max(fd.abs());
            assert!(
                (an - fd).abs() <= tol * scale,
                "gradient mismatch input {vi} elem {e}: analytic {an}, fd {fd}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_correct_gradient() {
        check_gradients(&[vec![3]], |_t, v| v[0].square().sum(), 1e-2, 1);
    }

    #[test]
    #[should_panic(expected = "gradient mismatch")]
    fn rejects_wrong_gradient() {
        // scale(2.0) pretending to be identity: f = 2*sum(x) but we compare
        // against... actually build a deliberately wrong adjoint via a
        // constant detour: grad of constant is blocked, so f(x) uses x but
        // reports zero gradient.
        check_gradients(
            &[vec![3]],
            |t, v| {
                let frozen = t.constant(v[0].value());
                frozen.square().sum().add(v[0].sum().scale(0.0)) // analytic grad = 0, fd != 0
            },
            1e-3,
            2,
        );
    }
}
