"""endscope: a symbolic decision engine for end spaces of infinite-type
surfaces and second-countable Stone spaces.

Spaces are finite terms; the engine derives germ tables (end classes with
their preorder and accumulation structure), certifies stability, classifies
telescoping ends, and renders automatic-continuity verdicts with
machine-checkable certificates. A companion module verifies the commutator
constructions and the Steinhaus exponent arithmetic at truncation depth.
"""

__version__ = "0.1.0"
