"""Program container: flattened code, functions, globals, branch edges."""

from __future__ import annotations


class BranchEdge:
    """One of the two edges of a conditional branch.

    ``taken`` is True for the edge followed when the condition register
    is non-zero (jump to the target), False for the fall-through edge.
    """

    __slots__ = ('branch_addr', 'taken', 'target')

    def __init__(self, branch_addr, taken, target):
        self.branch_addr = branch_addr
        self.taken = taken
        self.target = target

    @property
    def key(self):
        return (self.branch_addr, self.taken)

    def __repr__(self):
        kind = 'T' if self.taken else 'NT'
        return '<Edge %d:%s ->%d>' % (self.branch_addr, kind, self.target)


class BlankStructInfo:
    """Address/size of a compiler-emitted blank data structure.

    Section 4.4: the compiler creates one blank object per data type at
    program start; pointer fixes repoint null pointers at these objects
    so that NT-paths dereferencing them neither crash nor raise false
    positives.
    """

    __slots__ = ('type_name', 'address', 'size')

    def __init__(self, type_name, address, size):
        self.type_name = type_name
        self.address = address
        self.size = size


class Program:
    """An executable image for the simulator.

    Attributes:
        code: flat list of :class:`Instr`; instruction addresses are
            indices into this list.
        functions: function name -> entry address.
        entry: address execution starts at (the ``main`` wrapper).
        globals_size: number of data words reserved for globals
            (including string literals and blank structures).
        global_objects: list of ``(name, base_offset, size)`` tuples
            describing statically allocated objects, used by the memory
            checkers to build their interval maps.
        blank_structs: type name -> :class:`BlankStructInfo`.
        branch_edges: every conditional-branch edge in the program; the
            denominator of the branch-coverage metric.
        source_map: address -> human-readable location string.
        block_memo: the fast backend's compiled block code for this
            program, ``{variant key: {leader: entry}}`` (see
            :mod:`repro.cpu.fastinterp`); it lives and dies with the
            program.
    """

    def __init__(self, code, functions, entry, globals_size,
                 global_objects=None, blank_structs=None, source_map=None,
                 name='program', data_image=None):
        self.data_image = dict(data_image or {})
        self.code = code
        self.functions = dict(functions)
        self.entry = entry
        self.globals_size = globals_size
        self.global_objects = list(global_objects or [])
        self.blank_structs = dict(blank_structs or {})
        self.source_map = dict(source_map or {})
        self.name = name
        self.branch_edges = self._collect_edges()
        self.num_branches = sum(
            1 for instr in code if instr.op == 'br')
        self.block_memo = {}

    def _collect_edges(self):
        edges = []
        for addr, instr in enumerate(self.code):
            if instr.op == 'br':
                edges.append(BranchEdge(addr, True, instr.b))
                edges.append(BranchEdge(addr, False, addr + 1))
        return edges

    @property
    def num_edges(self):
        return len(self.branch_edges)

    def location(self, addr):
        """Best-effort human-readable location for an address."""
        if addr in self.source_map:
            return self.source_map[addr]
        best_name, best_entry = '?', -1
        for name, entry in self.functions.items():
            if best_entry < entry <= addr:
                best_name, best_entry = name, entry
        return '%s+%d' % (best_name, addr - best_entry)

    def __repr__(self):
        return '<Program %s: %d instrs, %d functions, %d branch edges>' % (
            self.name, len(self.code), len(self.functions), self.num_edges)
