"""The operation journal, at its original import path.

The journal lives beside the gateway that writes it
(:mod:`repro.gateway.journal`); this module re-exports it so
``repro.control.journal.Journal`` keeps naming the same class.
"""

from ..gateway.journal import JOURNAL_FORMAT, Journal, JournalEntry

__all__ = ["Journal", "JournalEntry", "JOURNAL_FORMAT"]
