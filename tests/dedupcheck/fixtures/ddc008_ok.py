"""Clean for DDC008: store objects go through the Store."""

from repro.storage import DiskModel, Store


def load_manifest(store: Store, key):
    return store.manifests.get(key)


def save_recipe(store: Store, recipe):
    store.recipes.put(recipe)


def drop(store: Store, kind, key):
    return store.remove(kind, key)


def hook_keys(store: Store):
    return store.ids(DiskModel.HOOK)


def scratch(backend, key, cache):
    # Not a store namespace, and not a backend: neither is policed.
    backend.put("bench.scratch", key, b"")
    backend.put_like("bench.scratch", key, b"", key)
    return cache.get(key)
