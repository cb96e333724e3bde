"""cdspart: CDS partitions for structured graph classes and conversion of
disjoint dominating trees into connected prescribed-size partitions."""

from .builders import BuilderError, InsufficientConnectivity
from .engine import EngineError, GLInstance, solve
from .graphs import GraphError
from .verify import verify_gl
