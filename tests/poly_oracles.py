"""Reference polynomial arithmetic for the tests: products on exponent
tuples, substitution without constant folding, and Greenberg digit
components from the ghost map over Z.  None of it calls the product
kernel of MultiPoly, so the kernel is never checked only by itself."""

import operator

from padicstacks.polyscheme import MultiPoly
from padicstacks.rings import power
from padicstacks.witt import ghost_components, witt_from_int


def mul_reference(a, b):
    """a*b by zipping the exponent tuples of every pair of terms."""
    assert a.variables == b.variables
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            expo = tuple(map(operator.add, e1, e2))
            terms[expo] = terms.get(expo, 0) + c1 * c2
    return MultiPoly(a.variables, terms)


def pow_reference(q, k, modulus=None):
    """q**k by square-and-multiply on mul_reference, reduced mod
    `modulus` after every product when given."""
    def mul(a, b):
        c = mul_reference(a, b)
        return c.reduce_coeffs(modulus) if modulus else c

    return power(q, k, mul, MultiPoly.constant(q.variables, 1))


def substitute_reference(f, mapping, modulus=None):
    """Plug polynomials in for variables term by term: every image power,
    constant images too, is multiplied out on exponent tuples."""
    images = [mapping[v] for v in f.variables]
    target_vars = images[0].variables if images else ()
    acc = MultiPoly(target_vars)
    for expo, coeff in f.terms.items():
        t = MultiPoly.constant(target_vars, coeff)
        for img, e in zip(images, expo):
            if e:
                t = mul_reference(t, pow_reference(img, e, modulus))
                if modulus:
                    t = t.reduce_coeffs(modulus)
        acc = acc + t
    return acc.reduce_coeffs(modulus) if modulus else acc


def ghost_expand_reference(f, p, length, names):
    """Digit components of f over F_p from the ghost map, with no Witt
    structure polynomial: the Witt vector c = f(x) has ghost components
    f(w_i(x)), each constant entering through the ghost components of its
    Teichmuller digits, and p^i c_i = f(w_i) - sum_(j<i) p^j c_j^(p^(i-j)).

    Step i runs mod p^(i+1) on the digits c_j mod p: a = b mod p gives
    a^(p^k) = b^(p^k) mod p^(k+1), so the right side is p^i c_i mod
    p^(i+1) and its division by p^i must be exact there."""
    one = MultiPoly.constant(names, 1)
    digits = {
        v: [MultiPoly.variable(names, f"{v}_{i}") for i in range(length)]
        for v in f.variables
    }
    coords = []
    for i in range(length):
        m = p ** (i + 1)
        w = {
            v: sum((pow_reference(xs[j], p ** (i - j)) * p**j for j in range(i + 1)),
                   MultiPoly(names))
            for v, xs in digits.items()
        }
        acc = MultiPoly(names)
        for expo, coeff in f.terms.items():
            t = one * ghost_components(witt_from_int(coeff, p, length), p)[i]
            for v, e in zip(f.variables, expo):
                if e:
                    t = mul_reference(t, pow_reference(w[v], e, m))
            acc = (acc + t).reduce_coeffs(m)
        for j, c in enumerate(coords):
            acc = acc - pow_reference(c, p ** (i - j), p ** (i - j + 1)) * p**j
        acc = acc.reduce_coeffs(m)
        assert all(coeff % p**i == 0 for coeff in acc.terms.values())
        coords.append(MultiPoly(names, {e: c // p**i for e, c in acc.terms.items()}))
    return tuple(coords)
