#include "workload/tpcc.h"

#include <algorithm>
#include <cstring>

#include "isa/program.h"

namespace bionicdb::workload {

namespace {

// Payload sizes (bytes).
constexpr uint32_t kWarehousePayload = 96;
constexpr uint32_t kDistrictPayload = 96;
constexpr uint32_t kCustomerPayload = 240;
constexpr uint32_t kHistoryPayload = 32;
constexpr uint32_t kNewOrderPayload = 8;
constexpr uint32_t kOrderPayload = 32;
constexpr uint32_t kOrderLinePayload = 48;
constexpr uint32_t kItemPayload = 64;
constexpr uint32_t kStockPayload = 128;

constexpr uint64_t kInitialNextOid = 3001;

}  // namespace

TpccOptions TpccTestOptions() {
  TpccOptions o;
  o.districts_per_warehouse = 2;
  o.customers_per_district = 30;
  o.items = 200;
  o.ol_cnt = 4;
  return o;
}

Tpcc::Tpcc(core::BionicDb* engine, const TpccOptions& options)
    : engine_(engine), options_(options) {
  for (uint32_t w = 0; w < engine->database().n_partitions(); ++w) {
    history_seq_.push_back((uint64_t(w) << 40) | 1);
  }
  const uint32_t L = options_.ol_cnt;
  no_items_base_ = 32;
  no_okey_off_ = 32 + 32 * L;
  no_nokey_off_ = no_okey_off_ + 8;
  no_olkeys_off_ = no_nokey_off_ + 8;
  no_order_pl_ = no_olkeys_off_ + 8 * L;
  no_neworder_pl_ = no_order_pl_ + kOrderPayload;
  no_ol_pl_ = no_neworder_pl_ + 8;
  no_undo_oid_ = no_ol_pl_ + kOrderLinePayload * L;
  no_undo_flag_ = no_undo_oid_ + 8;
  no_undo_stock_ = no_undo_flag_ + 8;
  no_block_size_ = no_undo_stock_ + 8 * L;
}

// NewOrder register map: r0 = block base, r1 = scratch, r2..r7 =
// computation, r8..r8+L-1 = stock tuple addresses, r(8+L) = district tuple
// address (kept live for the abort handler's UNDO restore).
isa::Program Tpcc::BuildNewOrderProgram() const {
  const uint32_t L = options_.ol_cnt;
  const isa::Reg stock_base = 8;
  const isa::Reg r_district = isa::Reg(8 + L);
  auto cp_item = [&](uint32_t i) { return isa::Reg(5 + i); };
  auto cp_stock = [&](uint32_t i) { return isa::Reg(5 + L + i); };
  auto cp_ol = [&](uint32_t i) { return isa::Reg(5 + 2 * L + i); };

  isa::ProgramBuilder b;
  b.Logic();
  // Clear the UNDO flag first: a client retry of an aborted attempt reuses
  // the block, and the abort handler must not restore from a stale backup.
  b.MovI(3, 0);
  b.Store(3, 0, no_undo_flag_);
  b.Search({.table_id = kWarehouse, .cp = 0, .key_offset = 0});
  b.Search({.table_id = kCustomer, .cp = 2, .key_offset = 16});
  b.Update({.table_id = kDistrict, .cp = 1, .key_offset = 8});
  // THE data dependency: the order/order-line keys derive from the
  // district's next_o_id, so the softcore must block here (section 5.6).
  b.Ret(r_district, 1);
  b.Load(2, r_district, kDistrictNextOid);
  b.Store(2, 0, no_undo_oid_);  // UNDO backup of next_o_id
  b.MovI(3, 1);
  b.Store(3, 0, no_undo_flag_);  // mark district as modified
  b.AddI(3, 2, 1);
  b.Store(3, r_district, kDistrictNextOid);  // bump next_o_id in place
  b.Load(4, 0, 24);                          // compact district id
  b.MulI(5, 4, 1 << 24);
  b.Add(5, 5, 2);  // order key = DID * 2^24 + o_id
  b.Store(5, 0, no_okey_off_);
  b.Store(5, 0, no_nokey_off_);
  b.Insert({.table_id = kOrder,
            .cp = 3,
            .key_offset = int32_t(no_okey_off_),
            .aux_offset = int32_t(no_order_pl_)});
  b.Insert({.table_id = kNewOrderTable,
            .cp = 4,
            .key_offset = int32_t(no_nokey_off_),
            .aux_offset = int32_t(no_neworder_pl_)});
  for (uint32_t i = 0; i < L; ++i) {
    const int32_t entry = int32_t(no_items_base_ + 32 * i);
    b.Search({.table_id = kItem, .cp = cp_item(i), .key_offset = entry});
    b.Load(6, 0, entry + 24);  // supply partition
    b.Update({.table_id = kStock,
              .cp = cp_stock(i),
              .key_offset = entry + 8,
              .part_reg = 6});
    b.MulI(7, 5, 16);
    b.AddI(7, 7, int64_t(i));  // order-line key = okey * 16 + i
    b.Store(7, 0, int64_t(no_olkeys_off_ + 8 * i));
    b.Insert({.table_id = kOrderLine,
              .cp = cp_ol(i),
              .key_offset = int32_t(no_olkeys_off_ + 8 * i),
              .aux_offset = int32_t(no_ol_pl_ + kOrderLinePayload * i)});
  }
  b.Yield();

  b.Commit();
  // Collect every result before touching a byte: an error in any RET jumps
  // to the abort handler with only the district modified so far.
  b.Ret(1, 0);  // warehouse
  b.Ret(1, 2);  // customer
  b.Ret(1, 3);  // order
  b.Ret(1, 4);  // new-order
  for (uint32_t i = 0; i < L; ++i) b.Ret(1, cp_item(i));
  for (uint32_t i = 0; i < L; ++i) {
    b.Ret(isa::Reg(stock_base + i), cp_stock(i));
  }
  for (uint32_t i = 0; i < L; ++i) b.Ret(1, cp_ol(i));
  // Apply the stock updates: s_quantity -= ol_qty (refill by 91 when it
  // would drop below 10), s_ytd += ol_qty.
  for (uint32_t i = 0; i < L; ++i) {
    const isa::Reg addr = isa::Reg(stock_base + i);
    const int32_t entry = int32_t(no_items_base_ + 32 * i);
    const std::string skip = "no_refill_" + std::to_string(i);
    b.Load(2, addr, kStockQuantity);
    b.Store(2, 0, int64_t(no_undo_stock_ + 8 * i));  // UNDO backup
    b.Load(3, 0, entry + 16);                        // ordered quantity
    b.Sub(2, 2, 3);
    b.CmpI(2, 10);
    b.Bge(skip);
    b.AddI(2, 2, 91);
    b.Label(skip);
    b.Store(2, addr, kStockQuantity);
    b.Load(4, addr, kStockYtd);
    b.Add(4, 4, 3);
    b.Store(4, addr, kStockYtd);
  }
  b.CommitTxn();

  b.Abort();
  // Restore the district's next_o_id if (and only if) we bumped it.
  b.Load(1, 0, no_undo_flag_);
  b.CmpI(1, 0);
  b.Be("abort_done");
  b.Load(1, 0, no_undo_oid_);
  b.Store(1, r_district, kDistrictNextOid);
  b.Label("abort_done");
  b.AbortTxn();
  return b.Build().value();
}

// Payment block layout:
//   0 w_key, 8 d_key, 16 c_key, 24 customer partition, 32 history key,
//   40 amount, 48 history payload staging (32 B), 80.. UNDO slots.
isa::Program Tpcc::BuildPaymentProgram() const {
  isa::ProgramBuilder b;
  b.Logic();
  b.Update({.table_id = kWarehouse, .cp = 0, .key_offset = 0});
  b.Update({.table_id = kDistrict, .cp = 1, .key_offset = 8});
  b.Load(1, 0, 24);  // customer's home partition (remote for 15 %)
  b.Update({.table_id = kCustomer, .cp = 2, .key_offset = 16, .part_reg = 1});
  b.Insert({.table_id = kHistory,
            .cp = 3,
            .key_offset = 32,
            .aux_offset = 48});
  b.Yield();

  b.Commit();
  b.Ret(2, 0);       // warehouse address
  b.Ret(3, 1);       // district address
  b.Ret(4, 2);       // customer address
  b.Ret(1, 3);       // history
  b.Load(6, 0, 40);  // amount
  // w_ytd += amount.
  b.Load(7, 2, kWarehouseYtd);
  b.Store(7, 0, 80);
  b.Add(7, 7, 6);
  b.Store(7, 2, kWarehouseYtd);
  // d_ytd += amount.
  b.Load(7, 3, kDistrictYtd);
  b.Store(7, 0, 88);
  b.Add(7, 7, 6);
  b.Store(7, 3, kDistrictYtd);
  // c_balance -= amount; c_ytd_payment += amount; c_payment_cnt += 1.
  b.Load(7, 4, kCustomerBalance);
  b.Store(7, 0, 96);
  b.Sub(7, 7, 6);
  b.Store(7, 4, kCustomerBalance);
  b.Load(7, 4, kCustomerYtdPayment);
  b.Store(7, 0, 104);
  b.Add(7, 7, 6);
  b.Store(7, 4, kCustomerYtdPayment);
  b.Load(7, 4, kCustomerPaymentCnt);
  b.Store(7, 0, 112);
  b.AddI(7, 7, 1);
  b.Store(7, 4, kCustomerPaymentCnt);
  b.CommitTxn();

  // Every RET precedes every STORE, so an abort never has state to restore.
  b.Abort().AbortTxn();
  return b.Build().value();
}

// Delivery block layout:
//   0 d_key, 8 DID, 16 carrier, 24 computed order key, 32 computed
//   order-line key, 40 computed customer key, 48 UNDO next_delivery,
//   56 UNDO flag.
//
// All data-dependent work happens in the LOGIC phase with blocking RETs
// (DB instructions are illegal in handlers): deliver the oldest
// undelivered order — tombstone its NEW-ORDER row, stamp the carrier,
// mark every order line delivered (summing the amounts with a dynamic
// CMP/JMP loop over computed keys) and credit the customer's balance.
// Ordering keeps the abort handler simple: the balance update comes after
// the last fallible RET, so only the district counter ever needs an UNDO
// restore. Carrier/delivered marks set by an aborted attempt are metadata
// re-stamped idempotently on retry.
isa::Program Tpcc::BuildDeliveryProgram() const {
  isa::ProgramBuilder b;
  b.Logic();
  b.MovI(3, 0);
  b.Store(3, 0, 56);  // UNDO flag = 0
  b.Update({.table_id = kDistrict, .cp = 0, .key_offset = 0});
  b.Ret(10, 0);                       // district payload address
  b.Load(2, 10, kDistrictNextDelivery);
  b.Load(4, 10, kDistrictNextOid);
  b.Cmp(2, 4);
  b.Bge("no_work");                   // nothing undelivered: no-op commit
  b.Store(2, 0, 48);                  // UNDO backup of next_delivery
  b.MovI(3, 1);
  b.Store(3, 0, 56);
  b.AddI(3, 2, 1);
  b.Store(3, 10, kDistrictNextDelivery);
  b.Load(5, 0, 8);                    // DID
  b.MulI(6, 5, 1 << 24);
  b.Add(6, 6, 2);                     // order key
  b.Store(6, 0, 24);
  b.Remove({.table_id = kNewOrderTable, .cp = 1, .key_offset = 24});
  b.Update({.table_id = kOrder, .cp = 2, .key_offset = 24});
  b.Ret(1, 1);                        // NEW-ORDER removal (fallible, early)
  b.Ret(8, 2);                        // order payload address
  b.Load(7, 0, 16);
  b.Store(7, 8, kOrderCarrier);       // stamp carrier
  b.Load(11, 8, kOrderCid);
  b.Load(12, 8, kOrderOlCnt);
  b.MovI(15, 0);                      // amount sum
  b.MovI(16, 0);                      // loop index
  b.Label("ol_loop");
  b.Cmp(16, 12);
  b.Bge("ol_done");
  b.MulI(17, 6, 16);
  b.Add(17, 17, 16);                  // order-line key
  b.Store(17, 0, 32);
  b.Update({.table_id = kOrderLine, .cp = 3, .key_offset = 32});
  b.Ret(18, 3);
  b.Load(19, 18, kOrderLineAmount);
  b.Add(15, 15, 19);
  b.MovI(20, 1);
  b.Store(20, 18, kOrderLineDelivered);
  b.AddI(16, 16, 1);
  b.Jmp("ol_loop");
  b.Label("ol_done");
  // Customer credit LAST: no fallible RET can follow, so no UNDO needed.
  b.MulI(13, 5, 100'000);
  b.Add(13, 13, 11);
  b.Store(13, 0, 40);
  b.Update({.table_id = kCustomer, .cp = 4, .key_offset = 40});
  b.Ret(14, 4);
  b.Load(21, 14, kCustomerBalance);
  b.Add(21, 21, 15);
  b.Store(21, 14, kCustomerBalance);
  b.Label("no_work");
  b.Yield();
  b.Commit().CommitTxn();
  b.Abort();
  b.Load(1, 0, 56);
  b.CmpI(1, 0);
  b.Be("ab_done");
  b.Load(1, 0, 48);
  b.Store(1, 10, kDistrictNextDelivery);
  b.Label("ab_done");
  b.AbortTxn();
  return b.Build().value();
}

// OrderStatus block layout:
//   0 d_key, 8 DID, 16 computed order key, 24 computed customer key,
//   32 computed order-line key, 40 OUT order total, 48 OUT balance.
//
// Read-only: status of the district's most recent order (the computed-key
// approximation of TPC-C's last-order-of-customer lookup).
isa::Program Tpcc::BuildOrderStatusProgram() const {
  isa::ProgramBuilder b;
  b.Logic();
  b.Search({.table_id = kDistrict, .cp = 0, .key_offset = 0});
  b.Ret(10, 0);
  b.Load(4, 10, kDistrictNextOid);
  b.CmpI(4, 3001);
  b.Ble("no_orders");                 // nothing ordered yet
  b.SubI(4, 4, 1);                    // most recent o_id
  b.Load(5, 0, 8);
  b.MulI(6, 5, 1 << 24);
  b.Add(6, 6, 4);
  b.Store(6, 0, 16);
  b.Search({.table_id = kOrder, .cp = 1, .key_offset = 16});
  b.Ret(8, 1);
  b.Load(11, 8, kOrderCid);
  b.Load(12, 8, kOrderOlCnt);
  b.MulI(13, 5, 100'000);
  b.Add(13, 13, 11);
  b.Store(13, 0, 24);
  b.Search({.table_id = kCustomer, .cp = 2, .key_offset = 24});
  b.Ret(14, 2);
  b.Load(21, 14, kCustomerBalance);
  b.Store(21, 0, 48);                 // report balance
  b.MovI(15, 0);
  b.MovI(16, 0);
  b.Label("os_loop");
  b.Cmp(16, 12);
  b.Bge("os_done");
  b.MulI(17, 6, 16);
  b.Add(17, 17, 16);
  b.Store(17, 0, 32);
  b.Search({.table_id = kOrderLine, .cp = 3, .key_offset = 32});
  b.Ret(18, 3);
  b.Load(19, 18, kOrderLineAmount);
  b.Add(15, 15, 19);
  b.AddI(16, 16, 1);
  b.Jmp("os_loop");
  b.Label("os_done");
  b.Store(15, 0, 40);                 // report order total
  b.Label("no_orders");
  b.Yield();
  b.Commit().CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

// StockLevel block layout:
//   0 d_key, 8 DID, 16 threshold, 24 computed order key, 32 computed
//   order-line key, 40 computed stock key, 48 OUT low-stock line count,
//   56 home warehouse id.
//
// Nested dynamic loops, all read-only: last (up to) 20 orders x their
// order lines x one stock row each — ~400 serial RETs per transaction,
// the heaviest control flow in the suite.
isa::Program Tpcc::BuildStockLevelProgram() const {
  isa::ProgramBuilder b;
  b.Logic();
  b.Search({.table_id = kDistrict, .cp = 0, .key_offset = 0});
  b.Ret(10, 0);
  b.Load(4, 10, kDistrictNextOid);     // next_o_id (exclusive bound)
  b.SubI(5, 4, 20);                    // lo = max(3001, next - 20)
  b.CmpI(5, 3001);
  b.Bge("have_lo");
  b.MovI(5, 3001);
  b.Label("have_lo");
  b.MovI(20, 0);                       // low-stock count
  b.Load(2, 0, 16);                    // threshold
  b.Load(6, 0, 8);                     // DID
  b.Label("sl_order_loop");
  b.Cmp(5, 4);
  b.Bge("sl_done");
  b.MulI(7, 6, 1 << 24);
  b.Add(7, 7, 5);                      // order key
  b.Store(7, 0, 24);
  b.Search({.table_id = kOrder, .cp = 1, .key_offset = 24});
  b.Ret(9, 1);
  b.Load(11, 9, kOrderOlCnt);
  b.MovI(8, 0);                        // line index
  b.Label("sl_ol_loop");
  b.Cmp(8, 11);
  b.Bge("sl_ol_done");
  b.MulI(12, 7, 16);
  b.Add(12, 12, 8);                    // order-line key
  b.Store(12, 0, 32);
  b.Search({.table_id = kOrderLine, .cp = 2, .key_offset = 32});
  b.Ret(13, 2);
  b.Load(14, 13, 0);                   // item id
  b.Load(15, 0, 56);                   // home warehouse
  b.MulI(16, 15, 1'000'000);
  b.Add(16, 16, 14);                   // stock key (home warehouse)
  b.Store(16, 0, 40);
  b.Search({.table_id = kStock, .cp = 3, .key_offset = 40});
  b.Ret(17, 3);
  b.Load(18, 17, kStockQuantity);
  b.Cmp(18, 2);
  b.Bge("sl_no_count");
  b.AddI(20, 20, 1);
  b.Label("sl_no_count");
  b.AddI(8, 8, 1);
  b.Jmp("sl_ol_loop");
  b.Label("sl_ol_done");
  b.AddI(5, 5, 1);
  b.Jmp("sl_order_loop");
  b.Label("sl_done");
  b.Store(20, 0, 48);                  // report the count
  b.Yield();
  b.Commit().CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

Status Tpcc::Setup() {
  auto make = [](db::TableId id, const char* name, uint32_t payload,
                 uint32_t buckets, bool replicated = false) {
    db::TableSchema s;
    s.id = id;
    s.name = name;
    s.index = db::IndexKind::kHash;
    s.key_len = 8;
    s.payload_len = payload;
    s.hash_buckets = buckets;
    s.replicated = replicated;
    return s;
  };
  auto& database = engine_->database();
  const uint32_t d = options_.districts_per_warehouse;
  const uint32_t c = options_.customers_per_district;
  const uint32_t i = options_.items;
  BIONICDB_RETURN_IF_ERROR(
      database.CreateTable(make(kWarehouse, "warehouse", kWarehousePayload, 16)));
  BIONICDB_RETURN_IF_ERROR(
      database.CreateTable(make(kDistrict, "district", kDistrictPayload, 64)));
  BIONICDB_RETURN_IF_ERROR(database.CreateTable(make(
      kCustomer, "customer", kCustomerPayload,
      db::HashBucketsFor(uint64_t(d) * c))));
  BIONICDB_RETURN_IF_ERROR(
      database.CreateTable(make(kHistory, "history", kHistoryPayload, 1 << 16)));
  BIONICDB_RETURN_IF_ERROR(database.CreateTable(
      make(kNewOrderTable, "new_order", kNewOrderPayload, 1 << 16)));
  BIONICDB_RETURN_IF_ERROR(
      database.CreateTable(make(kOrder, "order", kOrderPayload, 1 << 16)));
  BIONICDB_RETURN_IF_ERROR(database.CreateTable(
      make(kOrderLine, "order_line", kOrderLinePayload, 1 << 18)));
  BIONICDB_RETURN_IF_ERROR(database.CreateTable(
      make(kItem, "item", kItemPayload, i, /*replicated=*/true)));
  BIONICDB_RETURN_IF_ERROR(
      database.CreateTable(make(kStock, "stock", kStockPayload, i)));

  BIONICDB_RETURN_IF_ERROR(engine_->RegisterProcedure(
      kNewOrderTxn, BuildNewOrderProgram(), no_block_size_));
  BIONICDB_RETURN_IF_ERROR(
      engine_->RegisterProcedure(kPaymentTxn, BuildPaymentProgram(), 128));
  BIONICDB_RETURN_IF_ERROR(
      engine_->RegisterProcedure(kDeliveryTxn, BuildDeliveryProgram(), 64));
  BIONICDB_RETURN_IF_ERROR(engine_->RegisterProcedure(
      kOrderStatusTxn, BuildOrderStatusProgram(), 56));
  BIONICDB_RETURN_IF_ERROR(engine_->RegisterProcedure(
      kStockLevelTxn, BuildStockLevelProgram(), 64));

  // --- Population: one warehouse per partition -------------------------
  // Each partition loads its own tables, then its copy of the replicated
  // Item table.
  return database.Populate([&](db::PartitionId w) {
    std::vector<uint8_t> buf(256, 0);
    auto put64 = [&buf](int64_t off, uint64_t v) {
      std::memcpy(buf.data() + off, &v, 8);
    };
    std::fill(buf.begin(), buf.end(), 0);
    put64(kWarehouseYtd, 0);
    BIONICDB_RETURN_IF_ERROR(database.LoadU64Le(
        kWarehouse, w, WarehouseKey(w), buf.data(), kWarehousePayload));
    for (uint32_t dd = 0; dd < d; ++dd) {
      std::fill(buf.begin(), buf.end(), 0);
      put64(kDistrictNextOid, kInitialNextOid);
      put64(kDistrictNextDelivery, kInitialNextOid);
      BIONICDB_RETURN_IF_ERROR(database.LoadU64Le(
          kDistrict, w, DistrictKey(w, dd), buf.data(), kDistrictPayload));
      for (uint32_t cc = 0; cc < c; ++cc) {
        std::fill(buf.begin(), buf.end(), 0);
        BIONICDB_RETURN_IF_ERROR(
            database.LoadU64Le(kCustomer, w, CustomerKey(w, dd, cc), buf.data(),
                             kCustomerPayload));
      }
    }
    for (uint32_t ii = 0; ii < i; ++ii) {
      std::fill(buf.begin(), buf.end(), 0);
      put64(kStockQuantity, 50 + ii % 50);
      BIONICDB_RETURN_IF_ERROR(database.LoadU64Le(
          kStock, w, StockKey(w, ii), buf.data(), kStockPayload));
    }
    for (uint32_t ii = 0; ii < i; ++ii) {
      std::fill(buf.begin(), buf.end(), 0);
      put64(0, ItemPrice(ii));
      const uint64_t key = ItemKey(ii);  // native byte order, as LoadU64Le
      BIONICDB_RETURN_IF_ERROR(database.LoadOne(
          kItem, w, reinterpret_cast<const uint8_t*>(&key), 8, buf.data(),
          kItemPayload));
    }
    return Status::Ok();
  });
}

sim::Addr Tpcc::MakeNewOrder(Rng* rng, db::WorkerId home) {
  const uint32_t L = options_.ol_cnt;
  const uint32_t n_parts = engine_->database().n_partitions();
  db::TxnBlock block = engine_->AllocateBlock(kNewOrderTxn);
  uint32_t dd = uint32_t(rng->NextUint64(options_.districts_per_warehouse));
  uint32_t cc = uint32_t(rng->NextUint64(options_.customers_per_district));
  block.WriteU64(0, WarehouseKey(home));
  block.WriteU64(8, DistrictKey(home, dd));
  block.WriteU64(16, CustomerKey(home, dd, cc));
  block.WriteU64(24, CompactDistrictId(home, dd));

  // 1 % of NewOrders source one order line from a remote warehouse.
  const bool remote_txn =
      n_parts > 1 && rng->NextBool(options_.remote_neworder_fraction);
  const uint32_t remote_line =
      remote_txn ? uint32_t(rng->NextUint64(L)) : UINT32_MAX;

  // TPC-C order lines reference DISTINCT items; a duplicate would also make
  // the transaction re-update its own dirty stock tuple, which the blind
  // dirty-reject CC (section 4.7) aborts.
  std::vector<uint32_t> items;
  while (items.size() < L) {
    uint32_t cand = uint32_t(rng->NextUint64(options_.items));
    if (std::find(items.begin(), items.end(), cand) == items.end()) {
      items.push_back(cand);
    }
  }
  for (uint32_t i = 0; i < L; ++i) {
    uint32_t item = items[i];
    uint32_t qty = 1 + uint32_t(rng->NextUint64(10));
    uint32_t supply = home;
    if (i == remote_line) {
      supply = uint32_t(rng->NextUint64(n_parts - 1));
      if (supply >= home) ++supply;
    }
    const int64_t entry = int64_t(no_items_base_ + 32 * i);
    block.WriteU64(entry + 0, ItemKey(item));
    block.WriteU64(entry + 8, StockKey(supply, item));
    block.WriteU64(entry + 16, qty);
    block.WriteU64(entry + 24, supply);
    // Order-line payload staging: i_id, supply_w, qty, amount.
    const int64_t pl = int64_t(no_ol_pl_ + kOrderLinePayload * i);
    block.WriteU64(pl + 0, item);
    block.WriteU64(pl + 8, supply);
    block.WriteU64(pl + 16, qty);
    block.WriteU64(pl + 24, qty * ItemPrice(item));
  }
  // Order payload staging: c_id, entry_ts, ol_cnt.
  block.WriteU64(int64_t(no_order_pl_) + 0, cc);
  block.WriteU64(int64_t(no_order_pl_) + 16, L);
  block.WriteU64(int64_t(no_undo_flag_), 0);
  return block.base();
}

sim::Addr Tpcc::MakePayment(Rng* rng, db::WorkerId home) {
  const uint32_t n_parts = engine_->database().n_partitions();
  db::TxnBlock block = engine_->AllocateBlock(kPaymentTxn);
  uint32_t dd = uint32_t(rng->NextUint64(options_.districts_per_warehouse));
  uint32_t cc = uint32_t(rng->NextUint64(options_.customers_per_district));
  // 15 % of Payments pay a customer of a remote warehouse.
  uint32_t cw = home;
  if (n_parts > 1 && rng->NextBool(options_.remote_payment_fraction)) {
    cw = uint32_t(rng->NextUint64(n_parts - 1));
    if (cw >= home) ++cw;
  }
  uint64_t amount = 1 + rng->NextUint64(5000);
  block.WriteU64(0, WarehouseKey(home));
  block.WriteU64(8, DistrictKey(home, dd));
  block.WriteU64(16, CustomerKey(cw, dd, cc));
  block.WriteU64(24, cw);
  block.WriteU64(32, history_seq_[home]++);
  block.WriteU64(40, amount);
  block.WriteU64(48, amount);  // history payload: amount
  block.WriteU64(56, CustomerKey(cw, dd, cc));
  return block.base();
}

sim::Addr Tpcc::MakeMixed(Rng* rng, db::WorkerId home) {
  return rng->NextBool(0.5) ? MakeNewOrder(rng, home) : MakePayment(rng, home);
}

std::function<sim::Addr(db::WorkerId)> Tpcc::Factory(Rng* rng) {
  return [this, rng](db::WorkerId home) { return MakeMixed(rng, home); };
}

sim::Addr Tpcc::MakeDelivery(Rng* rng, db::WorkerId home) {
  db::TxnBlock block = engine_->AllocateBlock(kDeliveryTxn);
  uint32_t dd = uint32_t(rng->NextUint64(options_.districts_per_warehouse));
  block.WriteU64(0, DistrictKey(home, dd));
  block.WriteU64(8, CompactDistrictId(home, dd));
  block.WriteU64(16, 1 + rng->NextUint64(10));  // carrier id
  return block.base();
}

sim::Addr Tpcc::MakeStockLevel(Rng* rng, db::WorkerId home,
                               uint64_t threshold) {
  db::TxnBlock block = engine_->AllocateBlock(kStockLevelTxn);
  uint32_t dd = uint32_t(rng->NextUint64(options_.districts_per_warehouse));
  block.WriteU64(0, DistrictKey(home, dd));
  block.WriteU64(8, CompactDistrictId(home, dd));
  block.WriteU64(16, threshold);
  block.WriteU64(56, home);
  return block.base();
}

sim::Addr Tpcc::MakeOrderStatus(Rng* rng, db::WorkerId home) {
  db::TxnBlock block = engine_->AllocateBlock(kOrderStatusTxn);
  uint32_t dd = uint32_t(rng->NextUint64(options_.districts_per_warehouse));
  block.WriteU64(0, DistrictKey(home, dd));
  block.WriteU64(8, CompactDistrictId(home, dd));
  return block.base();
}

}  // namespace bionicdb::workload
