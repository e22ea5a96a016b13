"""An empty stand-in for the removed observational-equivalence layer.

Every candidate the search checks is one oracle query
(:meth:`repro.synthesis.oracle.Oracle.equivalent`); nothing creates a
:class:`Fingerprinter`.
"""


# Kept only because perfbench/spans.py imports and wraps these methods.
class Fingerprinter:
    """Never instantiated; both methods do nothing."""

    def resolve(self, spec, candidate, layout: str):
        return None

    def learn(self, spec, candidate, layout: str, verdict: bool) -> None:
        return None
