"""Structured pass/fail records produced by the verifier functions."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class VerificationReport:
    """One checked identity instance: lhs and rhs rendered, pass = exact equality."""
    identity: str
    parameters: dict
    lhs: str
    rhs: str
    passed: bool

    def params(self) -> str:
        """The parameters as space-separated k=v pairs, e.g. "n=5 q=3"."""
        return " ".join("%s=%s" % kv for kv in self.parameters.items())

    def line(self) -> str:
        return "%s  %-18s %-22s lhs=%s rhs=%s" % (
            "PASS" if self.passed else "FAIL",
            self.identity,
            self.params(),
            self.lhs,
            self.rhs,
        )

    def as_record(self) -> dict:
        return {
            "identity": self.identity,
            "parameters": dict(self.parameters),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
        }


def make_report(identity: str, parameters: dict, lhs, rhs, render=str) -> VerificationReport:
    """Compare lhs and rhs exactly, then render both sides for display."""
    return VerificationReport(identity, parameters, render(lhs), render(rhs), lhs == rhs)


def all_pass(reports) -> bool:
    return all(r.passed for r in reports)
