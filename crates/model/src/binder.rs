//! Binding a parameter store onto a gradient tape.
//!
//! Each training step builds a fresh tape; the binder memoizes one leaf
//! [`Var`] per parameter name so that however many times a forward pass
//! reuses a weight, gradients accumulate in a single slot, and the step's
//! gradient map can be extracted by name afterwards.

use orbit2_autograd::params::GradMap;
use orbit2_autograd::{Gradients, ParamStore, Tape, Var};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// A per-step view of the parameters as tape leaves.
pub struct Binder<'t, 's> {
    tape: &'t Tape,
    store: &'s ParamStore,
    bound: RefCell<BTreeMap<String, Var<'t>>>,
}

impl<'t, 's> Binder<'t, 's> {
    /// Create a binder for one forward/backward pass.
    pub fn new(tape: &'t Tape, store: &'s ParamStore) -> Self {
        Self { tape, store, bound: RefCell::new(BTreeMap::new()) }
    }

    /// Leaf var for a parameter (memoized per name).
    pub(crate) fn param(&self, name: &str) -> Var<'t> {
        if let Some(v) = self.bound.borrow().get(name) {
            return *v;
        }
        let v = self.tape.leaf(self.store.get(name).clone());
        self.bound.borrow_mut().insert(name.to_string(), v);
        v
    }

    /// Constant (non-trainable) tensor on the tape.
    pub(crate) fn constant(&self, t: orbit2_tensor::Tensor) -> Var<'t> {
        self.tape.constant(t)
    }

    /// Extract the gradient map for every bound parameter after backward.
    pub fn grad_map(&self, grads: &Gradients) -> GradMap {
        self.bound
            .borrow()
            .iter()
            .map(|(name, &var)| (name.clone(), grads.get_or_zero(var)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_tensor::Tensor;

    #[test]
    fn param_is_memoized() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let _a = binder.param("w");
        let n_after_first = tape.len();
        let _b = binder.param("w");
        assert_eq!(tape.len(), n_after_first, "second bind must not add a node");
    }

    #[test]
    fn reused_param_accumulates_gradient() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::from_vec(vec![2], vec![1.0, 3.0]));
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let w1 = binder.param("w");
        let w2 = binder.param("w");
        // loss = sum(w * w) using two bindings of the same leaf.
        let loss = w1.mul(w2).sum();
        let grads = tape.backward(loss);
        let gm = binder.grad_map(&grads);
        assert_eq!(gm["w"].data(), &[2.0, 6.0]);
    }

    #[test]
    fn grad_map_contains_only_bound_params() {
        let mut store = ParamStore::new();
        store.insert("used", Tensor::ones(vec![1]));
        store.insert("unused", Tensor::ones(vec![1]));
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let loss = binder.param("used").sum();
        let grads = tape.backward(loss);
        let gm = binder.grad_map(&grads);
        assert!(gm.contains_key("used"));
        assert!(!gm.contains_key("unused"));
    }
}
