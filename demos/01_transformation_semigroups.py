r"""
Transformation semigroups
=========================

Closures, generator graphs, and ideal structure of finite map semigroups.
"""

from ergoscope import (
    Transformation,
    generate_closure,
    idempotents,
    kernel,
    left_zeros,
    restriction_epimorphism,
    right_zeros,
    zero,
)

# The cyclic shift on three states generates a group: its kernel is the
# whole semigroup and there is no zero element.
shift = Transformation((1, 2, 0))
group = generate_closure([shift])
print("cyclic shift closure:", [e.images for e in group.elements])
print("kernel:", sorted(kernel(group)), "zero:", zero(group))

# Adjoin a constant map and the ideal structure collapses onto it.
const0 = Transformation.constant(2, 0)
sg = generate_closure([Transformation.identity(2), const0])
print("\n{id, c0} kernel:", sorted(kernel(sg)), "zero index:", zero(sg))

# Two constants side by side: both are left zeros, neither is a right
# zero, and the two-element kernel rules out a zero element entirely.
both = generate_closure([const0, Transformation.constant(2, 1)])
print("\n{c0, c1}: left zeros", sorted(left_zeros(both)),
      "| right zeros", sorted(right_zeros(both)),
      "| kernel", sorted(kernel(both)))
print("idempotents:", sorted(idempotents(both)))

# Restricting to an invariant subset is a verified epimorphism.
two_fixed = generate_closure([Transformation((0, 1, 0))])
morphism = restriction_epimorphism(two_fixed, [0, 1])
print("\nrestriction to {0,1}:", [e.images for e in morphism.target.elements],
      f"({morphism.checked_identities} identities checked)")
