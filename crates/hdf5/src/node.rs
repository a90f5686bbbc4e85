//! Groups, nodes, and attributes — the hierarchical object model.

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use std::collections::BTreeMap;

/// A scalar attribute attached to a group or dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum Attr {
    /// Integer attribute.
    Int(i64),
    /// Floating-point attribute.
    Float(f64),
    /// String attribute.
    Str(String),
}

/// A node in the object tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A folder of further objects.
    Group(Group),
    /// A typed array leaf.
    Dataset(Dataset),
}

/// A group: named children plus attributes. `BTreeMap` keeps iteration
/// order deterministic, which the injector's location enumeration and the
/// byte-stable encoding both rely on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Group {
    children: BTreeMap<String, Node>,
    attrs: BTreeMap<String, Attr>,
}

impl Group {
    /// An empty group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Immutable child iteration in name order.
    pub fn children(&self) -> impl Iterator<Item = (&str, &Node)> {
        self.children.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of direct children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when the group has no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Look up a direct child.
    pub fn child(&self, name: &str) -> Option<&Node> {
        self.children.get(name)
    }

    /// Attributes in name order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &Attr)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Set an attribute.
    pub fn set_attr(&mut self, name: &str, attr: Attr) {
        self.attrs.insert(name.to_string(), attr);
    }

    /// Get an attribute.
    pub fn attr(&self, name: &str) -> Option<&Attr> {
        self.attrs.get(name)
    }

    /// Descend (creating groups as needed) along `parts`; error if a dataset
    /// blocks the way.
    pub(crate) fn create_group_path(&mut self, parts: &[&str]) -> Result<&mut Group> {
        let mut cur = self;
        for (i, part) in parts.iter().enumerate() {
            let entry =
                cur.children.entry(part.to_string()).or_insert_with(|| Node::Group(Group::new()));
            match entry {
                Node::Group(g) => cur = g,
                Node::Dataset(_) => {
                    return Err(Error::NotAGroup(parts[..=i].join("/")));
                }
            }
        }
        Ok(cur)
    }

    /// Insert a dataset as a direct child.
    pub(crate) fn insert_dataset(&mut self, name: &str, ds: Dataset) -> Result<()> {
        if self.children.contains_key(name) {
            return Err(Error::AlreadyExists(name.to_string()));
        }
        self.children.insert(name.to_string(), Node::Dataset(ds));
        Ok(())
    }

    /// Used by the decoder, which validates uniqueness by construction.
    pub(crate) fn insert_node(&mut self, name: String, node: Node) -> Result<()> {
        if self.children.contains_key(&name) {
            return Err(Error::Malformed(format!("duplicate child name {name:?}")));
        }
        self.children.insert(name, node);
        Ok(())
    }

    /// Descend along path segments without collecting them: `None` when a
    /// segment is missing or a dataset blocks the way.
    pub(crate) fn get_path<'p>(&self, mut parts: impl Iterator<Item = &'p str>) -> Option<&Node> {
        let mut node = self.children.get(parts.next()?)?;
        for part in parts {
            node = match node {
                Node::Group(g) => g.children.get(part)?,
                Node::Dataset(_) => return None,
            };
        }
        Some(node)
    }

    pub(crate) fn get_path_mut<'p>(
        &mut self,
        mut parts: impl Iterator<Item = &'p str>,
    ) -> Option<&mut Node> {
        let mut node = self.children.get_mut(parts.next()?)?;
        for part in parts {
            node = match node {
                Node::Group(g) => g.children.get_mut(part)?,
                Node::Dataset(_) => return None,
            };
        }
        Some(node)
    }

    /// Lend every dataset below this group to `f` in path order, with its
    /// absolute path built in `path` (which holds this group's own path and
    /// is restored before returning).
    pub(crate) fn lend_datasets_mut<'a, F: FnMut(&str, &'a mut Dataset)>(
        &'a mut self,
        path: &mut String,
        f: &mut F,
    ) {
        for (name, node) in &mut self.children {
            let len = path.len();
            if len > 0 {
                path.push('/');
            }
            path.push_str(name);
            match node {
                Node::Dataset(ds) => f(path, ds),
                Node::Group(g) => g.lend_datasets_mut(path, f),
            }
            path.truncate(len);
        }
    }

    pub(crate) fn collect_dataset_paths(&self, prefix: &str, out: &mut Vec<String>) {
        for (name, node) in &self.children {
            let path = if prefix.is_empty() { name.clone() } else { format!("{prefix}/{name}") };
            match node {
                Node::Dataset(_) => out.push(path),
                Node::Group(g) => g.collect_dataset_paths(&path, out),
            }
        }
    }

    pub(crate) fn collect_object_paths(&self, prefix: &str, out: &mut Vec<String>) {
        for (name, node) in &self.children {
            let path = if prefix.is_empty() { name.clone() } else { format!("{prefix}/{name}") };
            out.push(path.clone());
            if let Node::Group(g) = node {
                g.collect_object_paths(&path, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dtype;

    #[test]
    fn attrs_set_and_get() {
        let mut g = Group::new();
        g.set_attr("framework", Attr::Str("chainer".into()));
        g.set_attr("epoch", Attr::Int(20));
        g.set_attr("lr", Attr::Float(0.01));
        assert_eq!(g.attr("framework"), Some(&Attr::Str("chainer".into())));
        assert_eq!(g.attr("epoch"), Some(&Attr::Int(20)));
        assert_eq!(g.attrs().count(), 3);
        assert!(g.attr("missing").is_none());
    }

    #[test]
    fn dataset_blocks_group_creation() {
        let mut g = Group::new();
        g.insert_dataset("w", Dataset::zeros(&[2], Dtype::F32)).unwrap();
        let err = g.create_group_path(&["w", "sub"]).unwrap_err();
        assert!(matches!(err, Error::NotAGroup(p) if p == "w"));
    }

    #[test]
    fn traversal_through_dataset_fails_cleanly() {
        let mut g = Group::new();
        g.insert_dataset("w", Dataset::zeros(&[2], Dtype::F32)).unwrap();
        assert!(g.get_path(["w", "deeper"].into_iter()).is_none());
    }

    #[test]
    fn children_iterate_in_name_order() {
        let mut g = Group::new();
        for name in ["zeta", "alpha", "mid"] {
            g.insert_dataset(name, Dataset::zeros(&[1], Dtype::U8)).unwrap();
        }
        let names: Vec<&str> = g.children().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
