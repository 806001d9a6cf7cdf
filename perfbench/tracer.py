"""Call tracing from outside the library.

`Tracer.install()` wraps every public function and public method of the
trapsurf layer modules.  A wrapper counts calls and accumulates inclusive
and self time (inclusive minus the time of wrapped calls made inside it).
Every binding of a wrapped function is replaced, not only the one in the
defining module: `variation` imports `extrinsic_data` by name, `cli` imports
`classify_submanifold` by name and `embedding` imports `as_point` by name,
and a wrapper on the defining module alone would miss those callers.

Nothing in `src/` is modified; the wrappers live in the benchmark process.
"""

import functools
import importlib
import inspect
import sys
import time

LAYER_MODULES = (
    "catalog", "expressions", "cli", "config", "quadrature", "geometry",
    "embedding", "extrinsic", "findiff", "variation", "sampling",
)

# The expression-grammar builders live in geometry and embedding but do
# expression work (parse, sp.diff, lambdify); their time belongs to the
# expressions layer so that per-node geometry figures stay per-node.
BUILDERS = (
    "geometry.metric_from_expressions",
    "geometry.vector_field_from_expressions",
    "embedding.embedding_from_expressions",
)


def layer_of(key):
    if key in BUILDERS:
        return "expressions"
    return key.split(".", 1)[0]


class Tracer:
    """Counts and times calls into trapsurf; see the module docstring."""

    def __init__(self):
        self.stats = {}            # key -> [calls, inclusive_s, self_s]
        self.covered_s = 0.0       # time inside outermost wrapped calls
        self.instantiated = set()  # distinct (name, params) given to instantiate
        self.grid_nodes_returned = 0
        self._stack = []
        self._patches = []         # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key, fn, after=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    tracer.covered_s += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _record_instantiate(self, args, kwargs, result):
        params = tuple(sorted((k, repr(v)) for k, v in kwargs.items()))
        self.instantiated.add((args[0], params))

    def _record_grid_nodes(self, args, kwargs, result):
        self.grid_nodes_returned += len(result[0])

    def install(self):
        """Wrap the layer modules of trapsurf (importing any not yet loaded)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"trapsurf.{name}")
                   for name in LAYER_MODULES}
        hooks = {
            "catalog.instantiate": self._record_instantiate,
            "quadrature.grid_nodes": self._record_grid_nodes,
        }
        replaced = {}  # id(original function) -> wrapper
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{short}.{attr}"
                    replaced[id(obj)] = self._wrap(key, obj, hooks.get(key))
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        # Replace every binding of each wrapped function, in every trapsurf
        # module and in the package namespace.
        owners = [m for n, m in list(sys.modules.items())
                  if n == "trapsurf" or n.startswith("trapsurf.")]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, wrapper)

    def _wrap_methods(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                new = self._wrap(key, obj)
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(key, obj.__func__))
            elif isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(key, obj.__func__))
            else:
                continue
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
