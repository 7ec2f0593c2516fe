"""Expert finding in multi-community Q&A data.

Evidence of expertise is collected into a sparse 4th-order tensor
(question × topic × voting × expert) and factorized with a hierarchy-
weighted ridge on the question mode, jointly with two binary membership
matrices sharing the answerer factor.  Per-topic rankings come from
contracting the fitted factors, and are evaluated against a reputation
ledger derived from vote events.  The API is the modules themselves
(`qaexpert.ingest`, `qaexpert.coupled`, `qaexpert.ranking`, ...); the
package re-exports nothing.
"""

__version__ = "0.1.0"
