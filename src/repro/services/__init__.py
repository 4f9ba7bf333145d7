"""Mochi microservices built on the simulated stack (DESIGN.md §2):
BAKE, SDSKV, Sonata, REMI, Mobject (single-node and SSG-sharded
cluster), and HEPnOS."""

from . import (
    bake,
    hepnos,
    mobject,
    mobject_cluster,
    remi,
    sdskv,
    sonata,
)

__all__ = [
    "bake",
    "hepnos",
    "mobject",
    "mobject_cluster",
    "remi",
    "sdskv",
    "sonata",
]
