#include "db/btree.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "db/chain.hpp"

namespace trail::db {

namespace {

constexpr std::uint8_t kLeaf = 1;
constexpr std::uint8_t kInternal = 2;
constexpr std::size_t kHeaderBytes = 16;
constexpr std::uint32_t kNoSibling = 0xFFFFFFFFu;

// ---- raw page field access -------------------------------------------------

std::uint8_t page_kind(std::span<const std::byte> p) { return static_cast<std::uint8_t>(p[0]); }
void set_page_kind(std::span<std::byte> p, std::uint8_t k) { p[0] = std::byte{k}; }

std::uint16_t page_count(std::span<const std::byte> p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[2]) |
                                    static_cast<std::uint16_t>(p[3]) << 8);
}
void set_page_count(std::span<std::byte> p, std::uint16_t c) {
  p[2] = std::byte(c & 0xFF);
  p[3] = std::byte(c >> 8);
}

std::uint32_t page_link(std::span<const std::byte> p) {  // sibling / child0
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[4 + static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}
void set_page_link(std::span<std::byte> p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[4 + static_cast<std::size_t>(i)] = std::byte(v >> (8 * i) & 0xFF);
}

std::uint64_t get_u64_at(std::span<const std::byte> p, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[off + static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}
void put_u64_at(std::span<std::byte> p, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[off + static_cast<std::size_t>(i)] = std::byte(v >> (8 * i) & 0xFF);
}
std::uint32_t get_u32_at(std::span<const std::byte> p, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[off + static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}
void put_u32_at(std::span<std::byte> p, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[off + static_cast<std::size_t>(i)] = std::byte(v >> (8 * i) & 0xFF);
}

// Leaf entries: 16 bytes each.
Key leaf_key(std::span<const std::byte> p, std::size_t i) {
  return get_u64_at(p, kHeaderBytes + i * 16);
}
BTree::Value leaf_value(std::span<const std::byte> p, std::size_t i) {
  return get_u64_at(p, kHeaderBytes + i * 16 + 8);
}
void set_leaf_entry(std::span<std::byte> p, std::size_t i, Key k, BTree::Value v) {
  put_u64_at(p, kHeaderBytes + i * 16, k);
  put_u64_at(p, kHeaderBytes + i * 16 + 8, v);
}

// Internal entries: 12 bytes each (separator key, right child).
Key node_key(std::span<const std::byte> p, std::size_t i) {
  return get_u64_at(p, kHeaderBytes + i * 12);
}
PageNo node_child(std::span<const std::byte> p, std::size_t i) {
  return get_u32_at(p, kHeaderBytes + i * 12 + 8);
}
void set_node_entry(std::span<std::byte> p, std::size_t i, Key k, PageNo child) {
  put_u64_at(p, kHeaderBytes + i * 12, k);
  put_u32_at(p, kHeaderBytes + i * 12 + 8, child);
}

/// Child to descend into for `key`: the first separator greater than key
/// bounds the child on its left.
std::uint32_t descend_index(std::span<const std::byte> p, Key key) {
  const std::uint16_t n = page_count(p);
  std::uint32_t lo = 0, hi = n;  // first separator with key < sep
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (key < node_key(p, mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;  // child index in [0, n]
}
PageNo child_at(std::span<const std::byte> p, std::uint32_t index) {
  return index == 0 ? page_link(p) : node_child(p, index - 1);
}

/// First leaf slot with entry key >= key.
std::size_t leaf_lower_bound(std::span<const std::byte> p, Key key) {
  std::size_t lo = 0, hi = page_count(p);
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (leaf_key(p, mid) < key)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace

BTree::BTree(BufferPool& pool, std::uint32_t pool_file_id, PageFile& file,
             disk::DiskDevice* offline_device)
    : pool_(pool), file_id_(pool_file_id), file_(file), offline_(offline_device) {}

void BTree::init_empty_offline() {
  if (offline_ == nullptr) throw std::logic_error("BTree: no offline device");
  root_ = 1;
  next_free_ = 2;
  height_ = 1;
  size_ = 0;
  std::vector<std::byte> leaf(kPageSize, std::byte{0});
  set_page_kind(leaf, kLeaf);
  set_page_count(leaf, 0);
  set_page_link(leaf, kNoSibling);
  file_.load_page_offline(*offline_, root_, leaf);
  pool_.reset();  // drop any cached frames from a previous generation
}

PageNo BTree::allocate_page() {
  if (next_free_ >= file_.page_count()) return 0;  // page 0 is reserved: "none"
  return next_free_++;
}

void BTree::descend(Key key, sim::Callback<void(std::vector<PathEntry>, PageNo)> cb) {
  struct State {
    std::vector<PathEntry> path;
    PageNo page;
    std::uint32_t levels_left;
    Key key;
  };
  auto st = std::make_shared<State>();
  st->page = root_;
  st->levels_left = height_ - 1;
  st->key = key;

  loop([st, cb = std::move(cb), this](const auto& again) {
    if (st->levels_left == 0) {
      cb(std::move(st->path), st->page);
      return;
    }
    pool_.fetch(file_id_, st->page, [st, again](std::span<std::byte> p) {
      if (page_kind(p) != kInternal)
        throw std::runtime_error("BTree: structural corruption (expected internal page)");
      const std::uint32_t child_index = descend_index(p, st->key);
      st->path.push_back(PathEntry{st->page, child_index});
      st->page = child_at(p, child_index);
      --st->levels_left;
      again();
    });
  });
}

void BTree::find(Key key, std::function<void(bool, Value)> cb) {
  descend(key, [this, key, cb = std::move(cb)](std::vector<PathEntry>, PageNo leaf) {
    pool_.fetch(file_id_, leaf, [key, cb = std::move(cb)](std::span<std::byte> p) {
      const std::size_t i = leaf_lower_bound(p, key);
      if (i < page_count(p) && leaf_key(p, i) == key)
        cb(true, leaf_value(p, i));
      else
        cb(false, 0);
    });
  });
}

void BTree::insert(Key key, Value value, std::function<void(bool)> cb) {
  descend(key, [this, key, value, cb = std::move(cb)](std::vector<PathEntry> path,
                                                      PageNo leaf) mutable {
    pool_.fetch(file_id_, leaf, [this, key, value, leaf, path = std::move(path),
                                 cb = std::move(cb)](std::span<std::byte> p) mutable {
      const std::uint16_t n = page_count(p);
      const std::size_t i = leaf_lower_bound(p, key);
      if (i < n && leaf_key(p, i) == key) {  // upsert
        set_leaf_entry(p, i, key, value);
        pool_.mark_dirty(file_id_, leaf);
        cb(true);
        return;
      }
      if (n < kLeafCapacity) {
        std::memmove(p.data() + kHeaderBytes + (i + 1) * 16,
                     p.data() + kHeaderBytes + i * 16, (n - i) * 16);
        set_leaf_entry(p, i, key, value);
        set_page_count(p, n + 1);
        pool_.mark_dirty(file_id_, leaf);
        ++size_;
        cb(true);
        return;
      }
      // Split: materialize, insert, redistribute.
      const PageNo right = allocate_page();
      if (right == 0) {
        cb(false);
        return;
      }
      std::vector<std::pair<Key, Value>> entries;
      entries.reserve(n + 1u);
      for (std::size_t e = 0; e < n; ++e) entries.emplace_back(leaf_key(p, e), leaf_value(p, e));
      entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(i), {key, value});
      const std::size_t mid = entries.size() / 2;
      const std::uint32_t old_sibling = page_link(p);
      // Rewrite the left (old) leaf.
      for (std::size_t e = 0; e < mid; ++e) set_leaf_entry(p, e, entries[e].first, entries[e].second);
      set_page_count(p, static_cast<std::uint16_t>(mid));
      set_page_link(p, right);
      pool_.mark_dirty(file_id_, leaf);
      ++size_;
      const Key sep = entries[mid].first;

      // Keep the left leaf resident while we build the right one.
      pool_.pin(file_id_, leaf);
      pool_.fetch(file_id_, right, [this, leaf, right, entries = std::move(entries), mid,
                                    old_sibling, sep, path = std::move(path),
                                    cb = std::move(cb)](std::span<std::byte> rp) mutable {
        std::memset(rp.data(), 0, kPageSize);
        set_page_kind(rp, kLeaf);
        set_page_count(rp, static_cast<std::uint16_t>(entries.size() - mid));
        set_page_link(rp, old_sibling);
        for (std::size_t e = mid; e < entries.size(); ++e)
          set_leaf_entry(rp, e - mid, entries[e].first, entries[e].second);
        pool_.mark_dirty(file_id_, right);
        pool_.unpin(file_id_, leaf);
        insert_into_parent(std::move(path), sep, right, std::move(cb));
      });
    });
  });
}

void BTree::insert_into_parent(std::vector<PathEntry> path, Key sep, PageNo new_child,
                               std::function<void(bool)> cb) {
  if (path.empty()) {
    // Root split: grow the tree by one level.
    const PageNo new_root = allocate_page();
    if (new_root == 0) {
      cb(false);
      return;
    }
    const PageNo old_root = root_;
    pool_.fetch(file_id_, new_root, [this, new_root, old_root, sep, new_child,
                                     cb = std::move(cb)](std::span<std::byte> p) mutable {
      std::memset(p.data(), 0, kPageSize);
      set_page_kind(p, kInternal);
      set_page_count(p, 1);
      set_page_link(p, old_root);
      set_node_entry(p, 0, sep, new_child);
      pool_.mark_dirty(file_id_, new_root);
      root_ = new_root;
      ++height_;
      cb(true);
    });
    return;
  }

  const PathEntry top = path.back();
  path.pop_back();
  pool_.fetch(file_id_, top.page, [this, top, sep, new_child, path = std::move(path),
                                   cb = std::move(cb)](std::span<std::byte> p) mutable {
    const std::uint16_t n = page_count(p);
    if (n < kInternalCapacity) {
      std::memmove(p.data() + kHeaderBytes + (top.child_index + 1) * 12,
                   p.data() + kHeaderBytes + top.child_index * 12,
                   (n - top.child_index) * 12);
      set_node_entry(p, top.child_index, sep, new_child);
      set_page_count(p, n + 1);
      pool_.mark_dirty(file_id_, top.page);
      cb(true);
      return;
    }
    // Split the internal node: materialize separators+children, insert,
    // promote the middle separator.
    const PageNo right = allocate_page();
    if (right == 0) {
      cb(false);
      return;
    }
    std::vector<Key> keys;
    std::vector<PageNo> children;  // children.size() == keys.size() + 1
    keys.reserve(n + 1u);
    children.reserve(n + 2u);
    children.push_back(page_link(p));
    for (std::size_t e = 0; e < n; ++e) {
      keys.push_back(node_key(p, e));
      children.push_back(node_child(p, e));
    }
    keys.insert(keys.begin() + top.child_index, sep);
    children.insert(children.begin() + top.child_index + 1, new_child);

    const std::size_t mid = keys.size() / 2;
    const Key promoted = keys[mid];
    // Left node: keys [0, mid), children [0, mid].
    set_page_link(p, children[0]);
    for (std::size_t e = 0; e < mid; ++e) set_node_entry(p, e, keys[e], children[e + 1]);
    set_page_count(p, static_cast<std::uint16_t>(mid));
    pool_.mark_dirty(file_id_, top.page);

    pool_.pin(file_id_, top.page);
    pool_.fetch(file_id_, right,
                [this, top, right, keys = std::move(keys), children = std::move(children), mid,
                 promoted, path = std::move(path), cb = std::move(cb)](
                    std::span<std::byte> rp) mutable {
                  std::memset(rp.data(), 0, kPageSize);
                  set_page_kind(rp, kInternal);
                  // Right node: keys (mid, end), children [mid+1, end].
                  set_page_link(rp, children[mid + 1]);
                  const std::size_t rn = keys.size() - mid - 1;
                  for (std::size_t e = 0; e < rn; ++e)
                    set_node_entry(rp, e, keys[mid + 1 + e], children[mid + 2 + e]);
                  set_page_count(rp, static_cast<std::uint16_t>(rn));
                  pool_.mark_dirty(file_id_, right);
                  pool_.unpin(file_id_, top.page);
                  insert_into_parent(std::move(path), promoted, right, std::move(cb));
                });
  });
}

void BTree::erase(Key key, std::function<void(bool)> cb) {
  descend(key, [this, key, cb = std::move(cb)](std::vector<PathEntry>, PageNo leaf) mutable {
    pool_.fetch(file_id_, leaf, [this, key, leaf, cb = std::move(cb)](std::span<std::byte> p) {
      const std::uint16_t n = page_count(p);
      const std::size_t i = leaf_lower_bound(p, key);
      if (i >= n || leaf_key(p, i) != key) {
        cb(false);
        return;
      }
      std::memmove(p.data() + kHeaderBytes + i * 16, p.data() + kHeaderBytes + (i + 1) * 16,
                   (n - i - 1) * 16);
      set_page_count(p, n - 1);
      pool_.mark_dirty(file_id_, leaf);
      --size_;
      cb(true);
    });
  });
}

void BTree::scan(Key from, Key to, sim::Callback<bool(Key, Value)> each,
                 sim::Callback<void()> done) {
  descend(from, [this, from, to, each = std::move(each), done = std::move(done)](
                    std::vector<PathEntry>, PageNo leaf) mutable {
    struct State {
      PageNo page;
      bool first = true;
      Key from;
      Key to;
      sim::Callback<bool(Key, Value)> each;
      sim::Callback<void()> done;
      bool stopped = false;
    };
    auto st = std::make_shared<State>();
    st->page = leaf;
    st->from = from;
    st->to = to;
    st->each = std::move(each);
    st->done = std::move(done);

    loop([this, st](const auto& again) {
      if (st->page == kNoSibling || st->stopped) {
        if (st->done) st->done();
        return;
      }
      pool_.fetch(file_id_, st->page, [st, again](std::span<std::byte> p) {
        std::size_t i = st->first ? leaf_lower_bound(p, st->from) : 0;
        st->first = false;
        const std::uint16_t n = page_count(p);
        for (; i < n; ++i) {
          const Key k = leaf_key(p, i);
          if (k > st->to || !st->each(k, leaf_value(p, i))) {
            st->stopped = true;
            break;
          }
        }
        if (!st->stopped) st->page = page_link(p);
        again();
      });
    });
  });
}

void BTree::bulk_load_offline(const std::vector<std::pair<Key, Value>>& sorted) {
  if (offline_ == nullptr) throw std::logic_error("BTree: no offline device");
  for (std::size_t i = 1; i < sorted.size(); ++i)
    if (sorted[i - 1].first >= sorted[i].first)
      throw std::invalid_argument("BTree::bulk_load: keys must be strictly ascending");
  pool_.reset();

  next_free_ = 1;
  size_ = sorted.size();
  // Build the leaf level ~90% full.
  const std::size_t per_leaf = std::max<std::size_t>(1, kLeafCapacity * 9 / 10);
  struct Node {
    PageNo page;
    Key first_key;
  };
  std::vector<Node> level;
  std::vector<std::byte> page(kPageSize);
  std::size_t i = 0;
  std::vector<PageNo> leaf_pages;
  do {
    const std::size_t n = std::min(per_leaf, sorted.size() - i);
    const PageNo pg = allocate_page();
    if (pg == 0) throw std::runtime_error("BTree::bulk_load: page file too small");
    std::memset(page.data(), 0, kPageSize);
    set_page_kind(page, kLeaf);
    set_page_count(page, static_cast<std::uint16_t>(n));
    for (std::size_t e = 0; e < n; ++e)
      set_leaf_entry(page, e, sorted[i + e].first, sorted[i + e].second);
    set_page_link(page, kNoSibling);  // patched after the level is known
    file_.load_page_offline(*offline_, pg, page);
    level.push_back(Node{pg, n > 0 ? sorted[i].first : 0});
    leaf_pages.push_back(pg);
    i += n;
  } while (i < sorted.size());
  // Patch sibling links.
  for (std::size_t l = 0; l + 1 < leaf_pages.size(); ++l) {
    file_.peek_page_offline(*offline_, leaf_pages[l], page);
    set_page_link(page, leaf_pages[l + 1]);
    file_.load_page_offline(*offline_, leaf_pages[l], page);
  }

  // Build internal levels bottom-up.
  height_ = 1;
  const std::size_t per_node = std::max<std::size_t>(2, kInternalCapacity * 9 / 10);
  while (level.size() > 1) {
    ++height_;
    std::vector<Node> next;
    std::size_t c = 0;
    while (c < level.size()) {
      const std::size_t n = std::min(per_node + 1, level.size() - c);  // children count
      const PageNo pg = allocate_page();
      if (pg == 0) throw std::runtime_error("BTree::bulk_load: page file too small");
      std::memset(page.data(), 0, kPageSize);
      set_page_kind(page, kInternal);
      set_page_link(page, level[c].page);
      set_page_count(page, static_cast<std::uint16_t>(n - 1));
      for (std::size_t e = 1; e < n; ++e)
        set_node_entry(page, e - 1, level[c + e].first_key, level[c + e].page);
      file_.load_page_offline(*offline_, pg, page);
      next.push_back(Node{pg, level[c].first_key});
      c += n;
    }
    level = std::move(next);
  }
  root_ = level.front().page;
}

}  // namespace trail::db
