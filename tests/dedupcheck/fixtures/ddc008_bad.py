"""Violates DDC008: store objects read and written behind the Store's back."""

from repro.storage import QUARANTINE_PREFIX, DiskModel, Manifest
from repro.storage.cluster_recipe import RECIPE_NAMESPACE


def load_manifest(backend, key):
    return Manifest.from_bytes(backend.get(DiskModel.MANIFEST, key))


def save_recipe(backend, recipe):
    backend.put(RECIPE_NAMESPACE, recipe.key_for(recipe.file_id), recipe.to_bytes())


def drop_quarantined(backend, kind, key):
    return backend.delete(QUARANTINE_PREFIX + kind, key)


def file_manifest_keys(view):
    return view.keys(namespace="file_manifest")


def link_hook(backend, key, manifest_id, previous):
    backend.put_like(DiskModel.HOOK, key, manifest_id, previous)


def restore_extents(backend, extents):
    return b"".join(backend.iter_ranges(DiskModel.CHUNK, extents))


def stored_recipes(view):
    return view.object_count(DiskModel.FILE_MANIFEST)
