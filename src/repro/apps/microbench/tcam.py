"""Software TCAM with wildcard rule matching (Table 3: "Firewall").

A ternary content-addressable memory emulated in software: rules are
(value, mask, priority, action) over packet 5-tuple fields; lookup
returns the highest-priority matching rule.  Used both by the Table-3
microbenchmark and the §5.7 firewall network function (8K rules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Field layout of the matched key: (src_ip, dst_ip, src_port, dst_port,
#: proto) packed into a single 104-bit integer.
FIELD_BITS = (32, 32, 16, 16, 8)
KEY_BITS = sum(FIELD_BITS)


def pack_key(src_ip: int, dst_ip: int, src_port: int, dst_port: int,
             proto: int) -> int:
    """Pack a 5-tuple into the TCAM's key integer."""
    key = 0
    for value, bits in zip((src_ip, dst_ip, src_port, dst_port, proto),
                           FIELD_BITS):
        key = (key << bits) | (value & ((1 << bits) - 1))
    return key


def field_mask(wildcard_fields: Tuple[bool, ...]) -> int:
    """Mask with all-ones for exact fields, zeros for wildcarded ones."""
    mask = 0
    for wildcard, bits in zip(wildcard_fields, FIELD_BITS):
        chunk = 0 if wildcard else (1 << bits) - 1
        mask = (mask << bits) | chunk
    return mask


@dataclass(frozen=True)
class TcamRule:
    value: int
    mask: int
    priority: int
    action: str

    def matches(self, key: int) -> bool:
        return (key & self.mask) == (self.value & self.mask)


class SoftwareTcam:
    """Priority-ordered wildcard TCAM: the first hit in descending
    priority order wins, exactly like hardware TCAM priority encoding
    (among equal priorities, the rule installed first).

    Lookup is tuple-space search (Srinivasan et al., SIGCOMM 1999): one
    table per distinct mask, keyed by ``value & mask``, holding the
    earliest rule in priority order with that masked value.  A key
    probes each mask's table once and takes the earliest hit, which is
    the rule a linear scan of the sorted list would return first.  The
    tables are rebuilt whenever the rule set changes.
    """

    def __init__(self):
        self._rules: List[TcamRule] = []
        #: (mask, {value & mask: (sort position, rule)}) per distinct mask
        self._tables: List[Tuple[int, Dict[int, Tuple[int, TcamRule]]]] = []
        self.lookups = 0

    def install(self, rule: TcamRule) -> None:
        self.install_many((rule,))

    def install_many(self, rules) -> None:
        self._rules.extend(rules)
        self._rules.sort(key=lambda r: -r.priority)
        self._rebuild()

    def remove(self, rule: TcamRule) -> None:
        self._rules.remove(rule)
        self._rebuild()

    def _rebuild(self) -> None:
        tables: Dict[int, Dict[int, Tuple[int, TcamRule]]] = {}
        for position, rule in enumerate(self._rules):
            tables.setdefault(rule.mask, {}).setdefault(
                rule.value & rule.mask, (position, rule))
        self._tables = list(tables.items())

    def lookup(self, key: int) -> Optional[TcamRule]:
        """First (highest-priority) matching rule, or None."""
        self.lookups += 1
        best = None
        for mask, table in self._tables:
            hit = table.get(key & mask)
            if hit is not None and (best is None or hit[0] < best[0]):
                best = hit
        return None if best is None else best[1]

    def __len__(self) -> int:
        return len(self._rules)
