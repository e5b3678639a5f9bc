"""A QUEL session: range declarations plus statement execution."""

from __future__ import annotations

from typing import Optional

from ..engine.plan import Query, UpdateRequest
from ..engine.results import QueryResult
from .ast import Append, Delete, RangeDecl, Replace, Retrieve
from .compiler import QuelCompileError, QuelCompiler
from .parser import parse


class QuelSession:
    """An interactive session: range declarations plus statement execution."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.compiler = QuelCompiler(machine.catalog)

    def compile(self, text: str) -> Optional[Query | UpdateRequest]:
        """Parse and compile one statement; range declarations return
        None (they only bind a variable)."""
        statement = parse(text)
        if isinstance(statement, RangeDecl):
            self.compiler.declare(statement)
            return None
        if isinstance(statement, Retrieve):
            return self.compiler.compile_retrieve(statement)
        if isinstance(statement, Append):
            return self.compiler.compile_append(statement)
        if isinstance(statement, Delete):
            return self.compiler.compile_delete(statement)
        if isinstance(statement, Replace):
            return self.compiler.compile_replace(statement)
        raise QuelCompileError(f"unhandled statement {statement!r}")

    def execute(self, text: str) -> Optional[QueryResult]:
        """Compile and run one statement; returns None for declarations."""
        compiled = self.compile(text)
        if compiled is None:
            return None
        if isinstance(compiled, Query):
            return self.machine.run(compiled)
        return self.machine.update(compiled)
