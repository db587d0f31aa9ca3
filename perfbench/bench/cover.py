"""Exterior coverings of many polygons outside the timed window.

Untraced, a pool of :data:`WORKERS` spawned processes computes them;
traced, they are computed one by one, each in a ``covering.cover`` span.
This module imports nothing but the covering code, so workers start fast.
"""
import multiprocessing
from multiprocessing import resource_tracker

from repro.s2lite.covering import exterior_covering

WORKERS = 3


def _cover(args):
    poly, level = args
    return exterior_covering(poly, level)


def coverings(polys, level: int, tracer=None, requests=None) -> list:
    """``exterior_covering(poly, level)`` for every polygon, in order;
    ``requests`` gives each traced span its request id."""
    if tracer is not None:
        out = []
        for poly, req in zip(polys, requests or [None] * len(polys)):
            with tracer.span("covering.cover", req):
                out.append(exterior_covering(poly, level))
        return out
    pool = multiprocessing.get_context("spawn").Pool(WORKERS)
    try:
        return pool.map(_cover, [(p, level) for p in polys], chunksize=4)
    finally:
        pool.close()
        pool.join()
        # The pool started multiprocessing's resource tracker, which would
        # outlive the pool; stop it and wait for it.
        resource_tracker._resource_tracker._stop()
