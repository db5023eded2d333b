"""Experiment drivers: one module per paper table/figure, named after
it (the README's "Layout" section indexes them).  Each exposes
``run(...) -> dict`` and a printing ``main()``; ``runner.main()`` runs
the full evaluation."""

from . import (
    common,
    extras,
    fig2_2,
    fig3_1,
    fig3_5,
    fig3_6,
    fig3_7,
    fig3_8,
    fig4_x,
    fig5_1,
    fig5_net,
    parallel,
    route_stability,
    table5_1,
)

__all__ = [
    "common",
    "parallel",
    "fig2_2",
    "fig3_1",
    "fig3_5",
    "fig3_6",
    "fig3_7",
    "fig3_8",
    "fig4_x",
    "fig5_1",
    "fig5_net",
    "table5_1",
    "route_stability",
    "extras",
]
