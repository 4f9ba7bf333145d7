"""Mochi microservices built on the simulated stack (DESIGN.md §2):
BAKE, SDSKV, Sonata, Mobject and HEPnOS."""

from . import (
    bake,
    hepnos,
    mobject,
    sdskv,
    sonata,
)

__all__ = [
    "bake",
    "hepnos",
    "mobject",
    "sdskv",
    "sonata",
]
