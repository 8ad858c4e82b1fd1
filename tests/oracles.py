"""Brute-force references the tests compare the package with.

They add and hash TorsionPoints and key their values by points, where the
package reads flat tables by point index, and they sum the formulas of the
closed forms literally, tuple by tuple.  `transfer` is a walk step made of
a domain's `mul` and `sum`, the reference both domains' kernels match.
`schoolbook` and `fold` multiply and reduce Z[zeta_p] elements as coordinate
tuples, the reference of the packed arithmetic in `cyclotomic`.  A
`TableTwist` is a twist given by its values on pairs of points, checked only
for normalization: the package makes every rho as the coboundary of a gamma,
so a twist that is no coboundary (or not symmetric) exists only here.
"""

from itertools import product

from tatestar.star_algebra import AlgebraElement
from tatestar.torsion import all_points, epsilon_exponent, weil_exponent


class TableTwist:
    """A normalized twist, rho(O, T) = rho(T, O) = 1, given by its values on point pairs.

    It has what `closed_forms.rho_form` reads of a rho, the `domain` and the
    flat table `_values` by i*n + j, and `value(S, T)` looks the pair up.
    """

    def __init__(self, domain, values):
        points = list(all_points(domain.p))
        self.domain = domain
        self._pairs = {(s, t): domain.coerce(values[(s, t)]) for s in points for t in points}
        self._values = list(self._pairs.values())
        origin = points[0]
        assert all(self.value(origin, t) == self.value(t, origin) == domain.one()
                   for t in points), "a twist must be 1 against the origin"

    def value(self, s, t):
        return self._pairs[(s, t)]


def transfer(domain, sums, rows):
    """c_t = sum_s sums[s] rows[s][t - s mod p], for p sums and p rows of length p,
    as p products and one `sum` per output."""
    p = domain.p
    pairs = list(enumerate(zip(sums, rows)))
    return [domain.sum(domain.mul(x, row[(t - s) % p]) for s, (x, row) in pairs)
            for t in range(p)]


def fold(p, full):
    """The power-basis coordinates of sum(full[e] * zeta^e) over e = 0..p-1,
    by zeta^(p-1) = -(1 + ... + zeta^(p-2))."""
    return tuple(c - full[p - 1] for c in full[:p - 1])


def schoolbook(p, a, b):
    """The coordinates of a * b for coordinate tuples a and b: every product
    a_i b_j lands on zeta^(i+j mod p), and the sum is folded."""
    full = [0] * p
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            full[(i + j) % p] += x * y
    return fold(p, full)


def reference_coboundary(gamma):
    """rho(T1, T2) = gamma(T1) gamma(T2) / gamma(T1 + T2), point pair by point pair."""
    domain = gamma.domain
    points = list(all_points(domain.p))
    inverse_at = {point: domain.inv(gamma.value(point)) for point in points}
    values = {}
    for t1 in points:
        g1 = gamma.value(t1)
        for t2 in points:
            values[(t1, t2)] = domain.mul(domain.mul(g1, gamma.value(t2)), inverse_at[t1 + t2])
    return TableTwist(domain, values)


def reference_star(f, g, rho):
    """f *_rho g by adding points and accumulating into a dict keyed by points."""
    domain = f.domain
    out = {}
    for t1, c1 in f.items():
        for t2, c2 in g.items():
            point = t1 + t2
            twist = domain.mul(domain.root(epsilon_exponent(t1, t2)), rho.value(t1, t2))
            value = domain.mul(domain.mul(c1, c2), twist)
            if point in out:
                value = domain.add(out[point], value)
            if not value:
                out.pop(point, None)
            else:
                out[point] = value
    return AlgebraElement(domain, out)


def enumerated(P, Q, gamma, rho):
    """The formulas of the three form docstrings, summed tuple by tuple over [0,p)^p.

    Returns the gamma and rho origin coefficients and the intermediate element.
    """
    domain = gamma.domain
    p = domain.p
    mul, root = domain.mul, domain.root
    d = weil_exponent(Q, P)
    half = (p + 1) // 2
    on_coset = [gamma.value(Q + i * P) for i in range(p)]
    inverse_on_line = [domain.inv(gamma.value(s * P)) for s in range(p)]
    gamma_terms, rho_terms = [], []
    line = [[] for _ in range(p)]
    for tup in product(range(p), repeat=p):
        total = sum(tup) % p
        gammas = on_coset[tup[0]]
        for i in tup[1:]:
            gammas = mul(gammas, on_coset[i])
        eps_weight = sum((2 * l - 1) * i for l, i in enumerate(tup, 1))
        term = mul(root(half * d * eps_weight), gammas)
        line[total].append(mul(term, inverse_on_line[total]))
        if total:
            continue
        e_weight = root(d * sum(l * i for l, i in enumerate(tup, 1)))
        gamma_terms.append(mul(e_weight, gammas))
        rhos = domain.one()
        for j in range(1, p):
            rhos = mul(rhos, rho.value(j * Q + sum(tup[:j]) * P, Q + tup[j] * P))
        rho_terms.append(mul(e_weight, rhos))
    intermediate = AlgebraElement(domain, [(s * P, domain.sum(line[s])) for s in range(p)])
    return domain.sum(gamma_terms), intermediate, domain.sum(rho_terms)
