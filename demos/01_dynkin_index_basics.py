# A walk through the Dynkin index calculus.
#
# The index of an irreducible module U over a simple algebra f is
# (dim U / dim f) * (lam, lam + 2 rho) with the form normalized so long
# roots have squared length 2.  It is always a non-negative integer, it is
# additive over direct sums, and embeddings f -> f' get an integer index by
# dividing out the target's natural-module index.

from lielimits import (
    Embedding,
    SemisimpleAlgebra,
    SimpleAlgebra,
    classify_embedding,
    compose_index,
    decomposition,
    dimension,
    embedding_index,
    index_of_irrep,
    min_nondiagonal_index,
    trace_index,
)

A1 = SimpleAlgebra("A", 1)
A2 = SimpleAlgebra("A", 2)
A3 = SimpleAlgebra("A", 3)
B3 = SimpleAlgebra("B", 3)

print("== indices of small irreducibles ==")
for alg, lam in [(A1, (1,)), (A1, (2,)), (A2, (1, 1)), (B3, (1, 0, 0))]:
    print(f"  {alg} weight {lam}: dim {dimension(alg, lam):3d}  index {index_of_irrep(alg, lam)}")

# For rank 1 the index has the closed form d(d^2-1)/6 in the dimension d.
print("\n== rank-1 closed form ==")
for d in range(1, 8):
    print(f"  d={d}: index {index_of_irrep(A1, (d - 1,))} = {d * (d * d - 1) // 6}")

# The trace-form oracle recomputes the same number from the weight system
# (Tr pi(h)^2 / 2 on a long coroot h) without touching the closed form.
print("\n== oracle agreement ==")
for lam in [(3,), (4,)]:
    print(f"  A1 {lam}: formula {index_of_irrep(A1, lam)}  trace {trace_index(A1, lam)}")

# Embeddings are recorded by how the target's natural module branches.
print("\n== embeddings and their classification ==")
examples = [
    ("one natural + trivials (standard)",
     Embedding(SemisimpleAlgebra((A1,)), A3,
               decomposition([A1], [(((1,),), 1), (((0,),), 2)]))),
    ("two naturals (diagonal)",
     Embedding(SemisimpleAlgebra((A1,)), A3,
               decomposition([A1], [(((1,),), 2)]))),
    ("the adjoint (general)",
     Embedding(SemisimpleAlgebra((A1,)), A2,
               decomposition([A1], [(((2,),), 1)]))),
]
for label, emb in examples:
    print(f"  {label}: index {embedding_index(emb)}, {classify_embedding(emb)}")

# Indices compose along chains f -> k1 + k2 -> f' by Dynkin's sum formula:
# the index of f -> f' is the sum over j of ind(f -> kj) * ind(kj -> f').
print("\n== composite chains ==")
leg = Embedding(SemisimpleAlgebra((A1,)), A1, decomposition([A1], [(((1,),), 1)]))
as_sum = Embedding(
    SemisimpleAlgebra((A1, A1)), A3,
    decomposition([A1, A1], [(((1,), (0,)), 1), (((0,), (1,)), 1)]),
)
as_tensor = Embedding(
    SemisimpleAlgebra((A1, A1)), A3,
    decomposition([A1, A1], [(((1,), (1,)), 1)]),
)
print("  diagonal A1 through omega1 + omega2:", compose_index([leg, leg], as_sum))
print("  diagonal A1 through omega1 x omega2:", compose_index([leg, leg], as_tensor))

# The smallest index outside the trivial/natural/conatural family grows with
# the rank; these are desk-scale witnesses, not sharp constants.
print("\n== minimal non-diagonal indices ==")
for alg, bound in [(A1, 10), (A2, 10), (A3, 20)]:
    print(f"  {alg}, dim <= {bound}: {min_nondiagonal_index(alg, bound)}")
