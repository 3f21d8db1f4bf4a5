//! Dense vector kernels shared by the Krylov solvers.

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm `‖a‖₂`.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = x + beta * y` (the CG direction update).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm2(&a), 5.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn xpby_updates_in_place() {
        let mut y = vec![1.0, 2.0];
        xpby(&[10.0, 10.0], 0.5, &mut y);
        assert_eq!(y, vec![10.5, 11.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
