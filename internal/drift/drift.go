// Package drift holds the variable-drift bound (Theorem 7,
// [LW14, Corollary 1.(i)]) the paper uses to bound the coalescence time:
// if E[X_{t+1} - X_t | X_t >= xmin] <= -h(X_t) for a non-decreasing h, then
//
//	E[T | X_0] <= xmin/h(xmin) + ∫_{xmin}^{X_0} dy / h(y).
//
// The paper instantiates it with h(x) = x²/(10n) to get E[T^k_C] <= 20n/k
// (Eq. 18), which experiment E4 compares against measurement. The general
// integrator lives in the tests, which check the closed form against it.
package drift

// CoalescenceBound returns the paper's closed-form drift bound on the
// expected time for n coalescing random walks on the complete graph to drop
// to k walks: E[T^k_C] <= 20n/k (Eq. 18, using h(x) = x²/(10n), xmin = k).
func CoalescenceBound(n, k int) float64 {
	if n <= 0 || k <= 0 || k > n {
		panic("drift: CoalescenceBound requires 0 < k <= n")
	}
	// Exact value of the Theorem 7 expression: 10n/k + 10n(1/k - 1/n)
	// = 20n/k - 10 <= 20n/k. We return the paper's round figure.
	return 20 * float64(n) / float64(k)
}
