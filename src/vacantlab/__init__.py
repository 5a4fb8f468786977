"""vacantlab: simulation lab for the vacant set left by random walk on the
giant component of a sparse random graph, and for the critical intensity of
the matching branching-tree model."""

__version__ = "0.5.0"

from . import critical, engine, exploration, experiments, gw, random_graph, walk

__all__ = [
    "__version__",
    "critical",
    "engine",
    "exploration",
    "experiments",
    "gw",
    "random_graph",
    "walk",
]
