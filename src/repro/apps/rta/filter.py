"""Pattern-matching filter (§4, per Russ Cox's regexp articles [15]).

A Thompson-construction NFA regex engine supporting the subset the
FlexStorm filter needs: literals, ``.``, character classes ``[abc]`` /
``[a-z]`` / ``[^...]``, alternation ``|``, grouping ``(...)``, the
``* + ?`` quantifiers and ``\\`` escapes.

A :class:`Regex` compiles any number of patterns into one union NFA: a
fresh start state with an ε-edge to each pattern's fragment, built at
the NFA level, so every pattern the parser accepts composes and no
patterns match nothing.  ``search`` runs that NFA as a lazy DFA: one
pass over the text, where each DFA state is the set of NFA states live
after a character.  Re-adding the start closure at every step makes
the match unanchored, so a match anywhere costs no restart.  DFA states
are small integers; each has one ``{char: next}`` row, filled the first
time a character is seen in that state, and an accept flag.  A warm
filter therefore pays one dict lookup per character for all its
patterns together — linear time, no backtracking blowup, which is why
it suits a wimpy NIC core.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

EPSILON = None


class _State:
    _ids = 0

    def __init__(self):
        _State._ids += 1
        self.state_id = _State._ids
        #: list of (predicate, next_state); predicate None = epsilon
        self.edges: List[Tuple[Optional[object], "_State"]] = []
        self.accepting = False


class _Fragment:
    def __init__(self, start: _State, outs: List[_State]):
        self.start = start
        self.outs = outs


class RegexError(ValueError):
    """Malformed pattern."""


class _Parser:
    """Recursive-descent parser building the NFA via Thompson construction."""

    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0

    def parse(self) -> _Fragment:
        frag = self._alternation()
        if self.pos != len(self.pattern):
            raise RegexError(f"unexpected {self.pattern[self.pos]!r} at {self.pos}")
        return frag

    # grammar: alternation := concat ('|' concat)*
    def _alternation(self) -> _Fragment:
        frag = self._concat()
        while self._peek() == "|":
            self.pos += 1
            right = self._concat()
            start = _State()
            start.edges.append((EPSILON, frag.start))
            start.edges.append((EPSILON, right.start))
            frag = _Fragment(start, frag.outs + right.outs)
        return frag

    def _concat(self) -> _Fragment:
        frags: List[_Fragment] = []
        while self._peek() not in (None, "|", ")"):
            frags.append(self._quantified())
        if not frags:
            state = _State()
            return _Fragment(state, [state])
        result = frags[0]
        for nxt in frags[1:]:
            for out in result.outs:
                out.edges.append((EPSILON, nxt.start))
            result = _Fragment(result.start, nxt.outs)
        return result

    def _quantified(self) -> _Fragment:
        frag = self._atom()
        quant = self._peek()
        if quant == "*":
            self.pos += 1
            start = _State()
            start.edges.append((EPSILON, frag.start))
            for out in frag.outs:
                out.edges.append((EPSILON, start))
            return _Fragment(start, [start])
        if quant == "+":
            self.pos += 1
            loop = _State()
            loop.edges.append((EPSILON, frag.start))
            for out in frag.outs:
                out.edges.append((EPSILON, loop))
            return _Fragment(frag.start, [loop])
        if quant == "?":
            self.pos += 1
            start = _State()
            start.edges.append((EPSILON, frag.start))
            return _Fragment(start, frag.outs + [start])
        return frag

    def _atom(self) -> _Fragment:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            frag = self._alternation()
            if self._peek() != ")":
                raise RegexError("unbalanced parenthesis")
            self.pos += 1
            return frag
        if ch == "[":
            return self._char_class()
        if ch == ".":
            self.pos += 1
            return self._edge(lambda c: True)
        if ch == "\\":
            self.pos += 1
            literal = self._peek()
            if literal is None:
                raise RegexError("dangling escape")
            self.pos += 1
            return self._edge(lambda c, l=literal: c == l)
        if ch in ("*", "+", "?"):
            raise RegexError(f"quantifier {ch!r} with nothing to repeat")
        self.pos += 1
        return self._edge(lambda c, l=ch: c == l)

    def _char_class(self) -> _Fragment:
        self.pos += 1  # consume '['
        negate = self._peek() == "^"
        if negate:
            self.pos += 1
        allowed: Set[str] = set()
        ranges: List[Tuple[str, str]] = []
        while self._peek() not in (None, "]"):
            start = self.pattern[self.pos]
            self.pos += 1
            if self._peek() == "-" and self.pos + 1 < len(self.pattern) \
                    and self.pattern[self.pos + 1] != "]":
                self.pos += 1
                end = self.pattern[self.pos]
                self.pos += 1
                ranges.append((start, end))
            else:
                allowed.add(start)
        if self._peek() != "]":
            raise RegexError("unterminated character class")
        self.pos += 1

        def predicate(c, allowed=frozenset(allowed), ranges=tuple(ranges),
                      negate=negate):
            hit = c in allowed or any(lo <= c <= hi for lo, hi in ranges)
            return hit != negate

        return self._edge(predicate)

    def _edge(self, predicate) -> _Fragment:
        start = _State()
        end = _State()
        start.edges.append((predicate, end))
        return _Fragment(start, [end])

    def _peek(self) -> Optional[str]:
        return self.pattern[self.pos] if self.pos < len(self.pattern) else None


class Regex:
    """Compiled patterns; ``search`` finds a match of any one of them
    anywhere in the text.

    ``Regex(p)`` compiles one pattern; ``Regex(p1, p2, ...)`` their
    union, and ``Regex()`` matches nothing.
    """

    def __init__(self, *patterns: str):
        self.patterns = patterns
        # the union NFA: a fresh start state with an ε-edge to each
        # pattern's Thompson fragment, every fragment ending in one
        # accept state
        self.start = _State()
        accept = _State()
        accept.accepting = True
        for pattern in patterns:
            frag = _Parser(pattern).parse()
            self.start.edges.append((EPSILON, frag.start))
            for out in frag.outs:
                out.edges.append((EPSILON, accept))
        self._start_set = self._closure({self.start})
        #: lazy DFA over integer states: the NFA set each state stands
        #: for, its {char: next state} row (filled on use) and whether
        #: it accepts
        self._ids: Dict[FrozenSet[_State], int] = {}
        self._nfa_sets: List[FrozenSet[_State]] = []
        self._rows: List[Dict[str, int]] = []
        self._accepts: List[bool] = []
        self._intern(self._start_set)

    @staticmethod
    def _closure(states: Set[_State]) -> FrozenSet[_State]:
        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for predicate, nxt in state.edges:
                if predicate is EPSILON and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def _intern(self, states: FrozenSet[_State]) -> int:
        state = self._ids.get(states)
        if state is None:
            state = self._ids[states] = len(self._nfa_sets)
            self._nfa_sets.append(states)
            self._rows.append({})
            self._accepts.append(any(s.accepting for s in states))
        return state

    def _step(self, state: int, ch: str) -> int:
        """DFA transition: advance every live NFA state on ``ch`` and
        re-add the start closure (the unanchored restart)."""
        moved = {target for nfa_state in self._nfa_sets[state]
                 for predicate, target in nfa_state.edges
                 if predicate is not EPSILON and predicate(ch)}
        nxt = self._rows[state][ch] = self._intern(
            self._closure(moved | self._start_set))
        return nxt

    def search(self, text: str) -> bool:
        """Unanchored match anywhere in the text, in one pass."""
        accepts = self._accepts
        if accepts[0]:
            return True
        rows = self._rows
        state = 0
        row = rows[0]
        for ch in text:
            nxt = row.get(ch)
            if nxt is None:
                nxt = self._step(state, ch)
            if accepts[nxt]:
                return True
            state = nxt
            row = rows[nxt]
        return False


class PatternFilter:
    """The FlexStorm filter worker: drop tuples matching no pattern.

    All patterns compile into one union :class:`Regex`, so a tuple
    costs one pass whatever the number of patterns.
    """

    def __init__(self, patterns: List[str]):
        self.regex = Regex(*patterns)
        self.passed = 0
        self.discarded = 0

    def interesting(self, text: str) -> bool:
        if self.regex.search(text):
            self.passed += 1
            return True
        self.discarded += 1
        return False
