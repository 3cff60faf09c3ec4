"""Reference for the oracle's uniformizer images: one chart walk per element.

ramify.tower._uniformizer_image evaluates each chart once per coset of the
field K_k it builds and shares the result among the elements that agree on
K_k.  This is the walk it replaced, which rebuilds every chart for every
group element; tests compare the two element by element.
"""

from __future__ import annotations

from ramify import tower as tower_module
from ramify.tower import close_group, vp_eval


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
            y_ser = vp_eval(g.images[chart.var], env, field, prec)
            for e, c in chart.peel:
                y_ser = y_ser - (cur ** e).scale(c)
            cur = cur ** chart.alpha * y_ser ** chart.beta
        out.append(cur)
    return out


def element_jumps(tower, gens, work):
    """val(g(T) - T) - 1 over the group's elements but the identity,
    ascending, as _oracle_attempt reports them."""
    group = close_group(tower, gens)
    ident = tower_module._identity(tower).key()
    images = element_images(tower, group, work)
    t_series = images[[g.key() for g in group].index(ident)]
    return tuple(sorted((g_t - t_series).valuation() - 1
                        for g, g_t in zip(group, images) if g.key() != ident))
