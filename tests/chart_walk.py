"""Reference for the oracle: the whole group, and one chart walk per element.

ramify.tower sifts a generating sequence of the group by the lower
filtration and evaluates only the elements the sift meets, each chart once
per coset of the field K_k it builds.  This is the route it replaced: the
generators closed under composition into all p^n elements, every chart
rebuilt for every element, and the jump of each element read off
val(g(T) - T); tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction

from ramify import tower as tower_module
from ramify.errors import DomainError
from ramify.ramfilt import LOWER, RamFiltration
from ramify.tower import _compose, _identity


def closure(tower, generators):
    """Every element of the group the generators make, the identity first.
    Elements are keyed on their reduced images, so two compositions that
    agree in the function field are one element."""
    ident = _identity(tower)
    seen = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                c = _compose(g, a)
                if c.key() not in seen:
                    seen[c.key()] = c
                    fresh.append(c)
        frontier = fresh
    return list(seen.values())


def enumerate_group(tower, generators):
    """closure(tower, generators), which must have order p^(#steps)."""
    group = closure(tower, generators)
    if len(group) != tower.wild_order:
        raise DomainError(f"generators produce a group of order {len(group)}, "
                          f"expected {tower.wild_order}")
    return group


def element_images(tower, group, work):
    """g(T) for every g of group, at working precision work, each from its
    own chart walk over a fresh expansion of the tower."""
    field = tower.field
    env, charts = tower_module._expand_tower(tower, work)
    prec = min(s.prec for s in env.values())
    out = []
    for g in group:
        cur = env["x"]
        for chart in charts:
            y_ser = g.images[chart.var].eval(env, prec)
            for e, c in chart.peel:
                y_ser = y_ser - (cur ** e).scale(c)
            cur = cur ** chart.alpha * y_ser ** chart.beta
        out.append(cur)
    return out


def element_jumps(tower, gens, work):
    """val(g(T) - T) - 1 over the group's elements but the identity,
    ascending."""
    group = enumerate_group(tower, gens)
    images = element_images(tower, group, work)
    t_series = images[0]
    return tuple(sorted((g_t - t_series).valuation() - 1
                        for g_t in images[1:]))


def lower_filtration(tower, gens, work):
    """The lower filtration from the jump of every element: |G_j| is one
    more than the number of elements with jump >= j."""
    jumps = element_jumps(tower, gens, work)
    breaks = tuple((Fraction(j), 1 + sum(1 for x in jumps if x >= j))
                   for j in sorted(set(jumps)))
    return RamFiltration(tower.total_order, tower.m, LOWER, breaks)
