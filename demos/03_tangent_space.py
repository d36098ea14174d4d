"""Walk through the SPD geometry used for covariance features: distance,
mean, and the tangent-space vectorization. `matrix_log` and `tangent_map`
take one matrix or a (k, n, n) stack."""

import numpy as np

from relconn.geometry import (ReferencePoint, logeuclidean_distance,
                              logeuclidean_mean, matrix_exp, matrix_log,
                              tangent_map, vectorize_symmetric)

rng = np.random.default_rng(3)


def random_spd(n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = q @ np.diag(10.0 ** rng.uniform(-1, 1, n)) @ q.T
    return 0.5 * (m + m.T)


a, b = random_spd(4), random_spd(4)
print(f"distance(a, b) = {logeuclidean_distance(a, b):.4f}")
print(f"distance(b, a) = {logeuclidean_distance(b, a):.4f}")
print(f"distance(a, a) = {logeuclidean_distance(a, a):.2e}")

# the distance ignores congruence by inversion and global scaling
print(f"distance(2a, 2b) = {logeuclidean_distance(2 * a, 2 * b):.4f}")

# log and exp invert each other
back = matrix_exp(matrix_log(a)).values
print(f"\nexp(log(a)) error: {np.max(np.abs(back - a)):.2e}")

# the mean minimizes the summed squared distance
mats = np.array([random_spd(4) for _ in range(10)])
mean = logeuclidean_mean(mats).values
base = sum(logeuclidean_distance(mean, s) ** 2 for s in mats)
worse = sum(logeuclidean_distance(mats[0], s) ** 2 for s in mats)
print(f"\nobjective at the mean: {base:.4f}")
print(f"objective at a member: {worse:.4f}")

# tangent vectors: length n(n+1)/2, norm equal to the whitened log norm
ref = ReferencePoint.from_covariances(mats)
v = tangent_map(ref, a)
whitened = ref.inv_sqrt @ a @ ref.inv_sqrt
print(f"\ntangent vector length: {v.shape[0]} (n=4 -> 10)")
print(f"vector 2-norm:        {np.linalg.norm(v):.6f}")
print(f"whitened log norm:    {np.linalg.norm(matrix_log(whitened)):.6f}")

# the reference itself maps to the origin
print(f"reference maps to |v| = "
      f"{np.linalg.norm(tangent_map(ref, ref.mean.values)):.2e}")

# a stack maps in one call, one row per matrix, as a loop over it would
rows = tangent_map(ref, mats)
looped = np.array([tangent_map(ref, m) for m in mats])
print(f"\nstacked map shape: {rows.shape}, "
      f"max difference to the loop: {np.max(np.abs(rows - looped)):.1e}")

# vectorization convention on a hand matrix
sym = np.array([[1.0, 2.0], [2.0, 3.0]])
print(f"\nvectorize([[1,2],[2,3]]) = {vectorize_symmetric(sym)}")
