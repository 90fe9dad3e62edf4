"""Schema constraints derived from Glushkov automata (Section 2, Appendix B).

Everything the scheduling algorithm needs from the DTD is packaged in
:class:`OrderConstraints`:

* ``Ord(a, b)`` -- the order constraint "in every valid child sequence all
  ``a`` children occur before all ``b`` children",
* ``Past(q, a)`` -- after reaching automaton state ``q``, no ``a`` child can
  be encountered anymore,
* ``past_table(S)`` -- the per-state conjunction over a symbol set ``S``,
* ``erased(O, tables)`` -- the automaton over the children in ``O`` only,
  every other child a silent move, with past tables carried over,
* cardinality constraints (``at_most_one``, ``at_least_one``) used by the
  Section-7 algebraic simplifications.

At run time the executor raises ``first-past`` punctuation with one DFA
transition and one table lookup per observed child (Appendix B): it steps a
scope's automaton and reads the past tables compiled here.

The reachability relation ``∆`` is computed over *non-empty* symbol sequences:
a state does not count as reachable from itself unless the automaton contains
an actual loop.  (Taking the reflexive closure, as a literal reading of the
appendix suggests, would make ``Past(q, a)`` false in the state reached right
after the last possible ``a`` -- contradicting the formal definition of
``Past_{ρ,S}`` in Section 2.)
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.dtd.glushkov import INITIAL_STATE, GlushkovAutomaton


class OrderConstraints:
    """Constraint relations of one content model.

    Instances are cheap to query (dictionary lookups); all relations are
    precomputed from the Glushkov automaton when the object is created, in
    time quadratic in the number of automaton states (Proposition 2.2).
    """

    def __init__(self, automaton: GlushkovAutomaton):
        self._automaton = automaton
        self._symbols = frozenset(automaton.alphabet)
        self._reachable = _transitive_successors(automaton)
        self._past = self._compute_past()
        self._ord = self._compute_ord()
        self._at_most_one = self._compute_at_most_one()
        self._at_least_one = self._compute_at_least_one()

    # ----------------------------------------------------------- relations

    @property
    def automaton(self) -> GlushkovAutomaton:
        """The underlying Glushkov automaton."""
        return self._automaton

    @property
    def symbols(self) -> FrozenSet[str]:
        """``symb(ρ)`` -- the tag names occurring in the content model."""
        return self._symbols

    def past(self, state: int, symbol: str) -> bool:
        """``Past_ρ(state, symbol)``: no ``symbol`` child can follow anymore.

        Symbols that do not occur in the content model are vacuously past.
        """
        if symbol not in self._symbols:
            return True
        return (state, symbol) in self._past

    def ord(self, first: str, second: str) -> bool:
        """``Ord_ρ(first, second)``: all ``first`` children precede all ``second`` children.

        Follows the formal definition of Section 2, under which the relation
        is vacuously true when either symbol cannot occur at all.
        """
        if first not in self._symbols or second not in self._symbols:
            return True
        return (first, second) in self._ord

    def ord_useful(self, first: str, second: str) -> bool:
        """Order constraint usable to *discharge a dependency* on ``first``.

        The scheduling algorithm drops a dependency symbol ``first`` from a
        ``past`` set when the arrival of ``second`` guarantees that all
        ``first`` items have been seen.  That guarantee only exists when
        ``second`` can actually occur in the content model; and it holds
        trivially when ``first`` cannot occur at all.  This is the variant of
        ``Ord`` the rewrite algorithm uses (see DESIGN.md, faithfulness
        notes).
        """
        if first not in self._symbols:
            return True
        if second not in self._symbols:
            return False
        return (first, second) in self._ord

    def past_table(self, symbols: Iterable[str]) -> Dict[int, bool]:
        """``PastTable_{ρ,S}``: per-state conjunction of ``past`` over ``S``."""
        wanted = tuple(symbols)
        return {
            state: all(self.past(state, symbol) for symbol in wanted)
            for state in self._automaton.states
        }

    def erased(
        self, observed: FrozenSet[str], tables: Sequence[Dict[int, bool]]
    ) -> Optional[Tuple[GlushkovAutomaton, List[Dict[int, bool]]]]:
        """The automaton over the ``observed`` children only, with ``tables``
        (past tables of this automaton) carried over to its states.

        Every other child is a silent move.  A state of the result is the set
        of Glushkov states the element can be in right after an observed
        child (or at the start), so it is again labelled by one symbol.
        Returns ``None`` when such a set disagrees on some table: the erased
        automaton could then decide differently.
        """
        automaton = self._automaton
        moves = automaton.transitions
        members: List[FrozenSet[int]] = [frozenset({INITIAL_STATE})]
        ids = {members[0]: INITIAL_STATE}
        labels: List[str] = []
        transitions: Dict[int, Dict[str, int]] = {}
        accepting: Set[int] = set()
        for state, group in enumerate(members):  # grows while it is walked
            if any(len({table[q] for q in group}) > 1 for table in tables):
                return None
            reach, stack = set(group), list(group)
            while stack:
                for symbol, target in moves.get(stack.pop(), {}).items():
                    if symbol not in observed and target not in reach:
                        reach.add(target)
                        stack.append(target)
            if not automaton.accepting.isdisjoint(reach):
                accepting.add(state)
            targets: Dict[str, Set[int]] = {}
            for source in reach:
                for symbol, target in moves.get(source, {}).items():
                    if symbol in observed:
                        targets.setdefault(symbol, set()).add(target)
            row = transitions[state] = {}
            for symbol, target_set in targets.items():
                key = frozenset(target_set)
                if key not in ids:
                    ids[key] = len(members)
                    members.append(key)
                    labels.append(symbol)
                row[symbol] = ids[key]
        erased_tables = [
            {state: table[min(group)] for state, group in enumerate(members)} for table in tables
        ]
        return GlushkovAutomaton(labels, transitions, accepting), erased_tables

    # --------------------------------------------------------- cardinality

    def at_most_one(self, symbol: str) -> bool:
        """``symbol ∈ ||≤1``: no valid child sequence contains it twice."""
        if symbol not in self._symbols:
            return True
        return symbol in self._at_most_one

    def at_least_one(self, symbol: str) -> bool:
        """Every valid child sequence contains at least one ``symbol``."""
        if symbol not in self._symbols:
            return False
        return symbol in self._at_least_one

    def exactly_one(self, symbol: str) -> bool:
        """Every valid child sequence contains exactly one ``symbol``."""
        return self.at_most_one(symbol) and self.at_least_one(symbol)

    # ----------------------------------------------------------- internals

    def _compute_past(self) -> Set[Tuple[int, str]]:
        past: Set[Tuple[int, str]] = set()
        label_states: Dict[str, Tuple[int, ...]] = {
            symbol: self._automaton.states_labelled(symbol) for symbol in self._symbols
        }
        for state in self._automaton.states:
            reachable = self._reachable[state]
            for symbol in self._symbols:
                if not any(target in reachable for target in label_states[symbol]):
                    past.add((state, symbol))
        return past

    def _compute_ord(self) -> Set[Tuple[str, str]]:
        constraints: Set[Tuple[str, str]] = set()
        for first in self._symbols:
            for second in self._symbols:
                states_second = self._automaton.states_labelled(second)
                if all((state, first) in self._past for state in states_second):
                    constraints.add((first, second))
        return constraints

    def _compute_at_most_one(self) -> Set[str]:
        result: Set[str] = set()
        for symbol in self._symbols:
            states = self._automaton.states_labelled(symbol)
            repeated = any(
                any(other in self._reachable[state] for other in states) for state in states
            )
            if not repeated:
                result.add(symbol)
        return result

    def _compute_at_least_one(self) -> Set[str]:
        result: Set[str] = set()
        for symbol in self._symbols:
            if not self._accepts_without(symbol):
                result.add(symbol)
        return result

    def _accepts_without(self, symbol: str) -> bool:
        """Whether some valid child sequence avoids ``symbol`` entirely."""
        seen = {INITIAL_STATE}
        stack = [INITIAL_STATE]
        while stack:
            state = stack.pop()
            if self._automaton.is_accepting(state):
                return True
            for transition_symbol, target in self._automaton.transitions.get(state, {}).items():
                if transition_symbol == symbol or target in seen:
                    continue
                seen.add(target)
                stack.append(target)
        return False


def _transitive_successors(automaton: GlushkovAutomaton) -> Dict[int, FrozenSet[int]]:
    """Transitive (non-reflexive) closure of the successor relation."""
    direct: Dict[int, Set[int]] = {
        state: set(automaton.successors(state)) for state in automaton.states
    }
    closure: Dict[int, FrozenSet[int]] = {}
    for state in automaton.states:
        seen: Set[int] = set()
        stack = list(direct[state])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(direct[node] - seen)
        closure[state] = frozenset(seen)
    return closure
