"""Lock elision: one per-site verdict for every path that elides.

Objects only their allocating thread ever locks may skip the lock
manager.  Each allocation site gets one verdict: **proven** (escape
analysis: non-escaping), **static-safe** / **static-racy** (with
``static_concurrency``, the lockset analysis of
:mod:`repro.analysis.concurrency`: every locker is the allocating
thread / the class is lock-shared) or **unproven**.  The
``lock_elision`` config elides proven sites; tier 2 of the tier ladder
elides proven and static-safe sites and speculates on unproven ones
until a deoptimization blacklists them.  :class:`ElisionPolicy` builds
one escape analysis (shared with the concurrency analysis) and exposes
the single allocation hook, ``None`` for configs that never elide.
"""

from __future__ import annotations

from ..isa.opcodes import Op
from .threads import EMIT_COMPILED

PROVEN = "proven"
STATIC_SAFE = "static-safe"
STATIC_RACY = "static-racy"
UNPROVEN = "unproven"


class ElisionPolicy:
    """Per-site lock-elision verdicts and the allocation hook for one VM."""

    def __init__(self, program, *, lock_elision: bool = False,
                 static_concurrency: bool = False, tiered=None) -> None:
        self.program = program
        self.static_concurrency = static_concurrency
        self.tiered = tiered
        self._escape = None
        self._concurrency = None
        self._verdicts: dict[int, dict] = {}     # method_id -> {site: verdict}
        self._sync_sites: dict[int, list] = {}   # method_id -> NEW sites
        #: ``hook(thread, frame, obj)`` after every bytecode allocation.
        if lock_elision:
            self.alloc_hook = self._mark_proven
        elif tiered is not None:
            self.alloc_hook = self._mark_tier2
        else:
            self.alloc_hook = None

    def verdicts(self, method) -> dict:
        """``{site: verdict}`` for ``method``; unlisted sites are
        :data:`UNPROVEN`.  Proven outranks static-safe outranks
        static-racy."""
        found = self._verdicts.get(method.method_id)
        if found is None:
            if self._escape is None:
                from ..analysis.dataflow.escape import EscapeSummaries
                self._escape = EscapeSummaries(self.program)
            found = {}
            if self.static_concurrency:
                if self._concurrency is None:
                    from ..analysis.concurrency import ConcurrencyAnalysis
                    self._concurrency = ConcurrencyAnalysis(
                        self.program, escape=self._escape)
                ca = self._concurrency
                found.update(dict.fromkeys(ca.racy_sites(method), STATIC_RACY))
                found.update(dict.fromkeys(ca.safe_sites(method), STATIC_SAFE))
            found.update(dict.fromkeys(
                self._escape.elidable_allocs(method), PROVEN))
            self._verdicts[method.method_id] = found
        return found

    def verdict(self, method, site: int) -> str:
        return self.verdicts(method).get(site, UNPROVEN)

    def tier2_decision(self, method, site: int, blacklist) -> str | None:
        """Tier 2 at ``site``: ``"elide"`` (proven or static-safe),
        ``"speculate"`` (unproven, speculation on, not blacklisted by a
        deopt) or ``None`` (lock normally)."""
        verdict = self.verdict(method, site)
        if verdict is PROVEN or verdict is STATIC_SAFE:
            return "elide"
        if (verdict is UNPROVEN and self.tiered.strategy.speculate
                and site not in blacklist):
            return "speculate"
        return None

    def tier2_profitable(self, method, blacklist) -> bool:
        """The tier-2 benefit screen: tier 2 would elide (soundly or
        speculatively) at a site allocating a class with synchronized
        methods."""
        sites = self._sync_sites.get(method.method_id)
        if sites is None:
            sites = self._sync_sites[method.method_id] = []
            for pc, ins in enumerate(method.code):
                if ins.op is not Op.NEW:
                    continue
                try:
                    target = self.program.get_class(
                        method.jclass.pool[ins.a].class_name)
                except KeyError:
                    continue
                if any(m.is_synchronized for m in target.methods.values()):
                    sites.append(pc)
        return any(self.tier2_decision(method, pc, blacklist)
                   for pc in sites)

    # -- allocation hooks (the instruction just fetched is ip - 1) -------
    def _mark_proven(self, thread, frame, obj) -> None:
        if self.verdicts(frame.method).get(frame.ip - 1) is PROVEN:
            obj.tl_thread = thread.thread_id

    def _mark_tier2(self, thread, frame, obj) -> None:
        """Only tier-2 code elides; a speculated object remembers its
        site (``tl_spec``) so a foreign touch can repair and deopt."""
        compiled = frame.compiled
        if (compiled is None or compiled.tier < 2
                or frame.emit_mode < EMIT_COMPILED):
            return
        method, site, tiered = frame.method, frame.ip - 1, self.tiered
        st = tiered.states.get(method.method_id)
        decision = self.tier2_decision(
            method, site, st.elide_blacklist if st is not None else ())
        if decision is None:
            return
        obj.tl_thread = thread.thread_id
        if decision == "speculate":
            obj.tl_spec = (method.method_id, site)
            tiered.speculative_marks += 1
