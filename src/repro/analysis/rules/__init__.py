"""Built-in rules. Importing this package registers all of them.

One module per rule, named after what it protects — see
``docs/static-analysis.md`` for the catalog and for how to add a rule
(subclass :class:`~repro.analysis.base.Rule`, decorate with
:func:`~repro.analysis.base.register_rule`, import the module here).
"""

from repro.analysis.rules import (  # noqa: F401  (imported to register)
    atomic_writes,
    boxed_state,
    determinism,
    resource_safety,
)
