"""QUEL front-end: Gamma's query language (an extended INGRES QUEL).

Typical use::

    from repro import GammaMachine
    from repro.quel import QuelSession

    machine = GammaMachine()
    machine.load_wisconsin("tenktup", 10_000)
    session = QuelSession(machine)
    session.execute("range of t is tenktup")
    result = session.execute(
        "retrieve into res (t.all)"
        " where t.unique2 >= 0 and t.unique2 <= 99"
    )
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".compiler": ("QuelCompileError", "QuelCompiler"),
    ".lexer": ("QuelSyntaxError", "tokenize"),
    ".parser": ("parse",),
    ".session": ("QuelSession",),
})
