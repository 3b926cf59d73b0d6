#include "storage/remote_store.h"

namespace vizndp::storage {

using msgpack::Array;
using msgpack::Value;

namespace {

ObjectInfo InfoFromValue(const Value& v) {
  const Array& pair = v.As<Array>();
  return {pair.at(0).As<std::string>(), pair.at(1).AsUint()};
}

}  // namespace

void RemoteObjectStore::CreateBucket(const std::string& bucket) {
  client_->Call("store.create_bucket", Array{Value(bucket)});
}

bool RemoteObjectStore::BucketExists(const std::string& bucket) const {
  return client_->Call("store.exists_bucket", Array{Value(bucket)}).As<bool>();
}

void RemoteObjectStore::Put(const std::string& bucket, const std::string& key,
                            ByteSpan data) {
  client_->Call("store.put", Array{Value(bucket), Value(key),
                                   Value(Bytes(data.begin(), data.end()))});
}

Bytes RemoteObjectStore::Get(const std::string& bucket,
                             const std::string& key) {
  Value v = client_->Call("store.get", Array{Value(bucket), Value(key)});
  return std::move(v.AsMutable<Bytes>());
}

Bytes RemoteObjectStore::GetRange(const std::string& bucket,
                                  const std::string& key, std::uint64_t offset,
                                  std::uint64_t length) {
  Value v = client_->Call("store.get_range",
                          Array{Value(bucket), Value(key), Value(offset),
                                Value(length)});
  return std::move(v.AsMutable<Bytes>());
}

ObjectInfo RemoteObjectStore::Stat(const std::string& bucket,
                                   const std::string& key) {
  return InfoFromValue(
      client_->Call("store.stat", Array{Value(bucket), Value(key)}));
}

bool RemoteObjectStore::Exists(const std::string& bucket,
                               const std::string& key) {
  return client_->Call("store.exists", Array{Value(bucket), Value(key)})
      .As<bool>();
}

void RemoteObjectStore::Delete(const std::string& bucket,
                               const std::string& key) {
  client_->Call("store.delete", Array{Value(bucket), Value(key)});
}

std::vector<ObjectInfo> RemoteObjectStore::List(const std::string& bucket,
                                                const std::string& prefix) {
  const Value v =
      client_->Call("store.list", Array{Value(bucket), Value(prefix)});
  std::vector<ObjectInfo> out;
  for (const Value& item : v.As<Array>()) {
    out.push_back(InfoFromValue(item));
  }
  return out;
}

}  // namespace vizndp::storage
